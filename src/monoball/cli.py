"""Batch front-end: parse group/set specs from JSON, dispatch one experiment,
emit a machine-readable report.

Exit codes: 0 all assertions passed, 1 input error, 2 a stated hypothesis
fails (the report is still written, descriptively), 3 an exactly-verifiable
claim was falsified.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from . import __version__
from .bohr import CharSet, bohr_norm, linbohr
from .errors import CapExceededError, FalsifiedError, GroupValidationError
from .groups import (SUBGROUP_ORDER_CAP, FiniteGroup, GroupSubset, _is_integer, build_group,
                     conjugacy_classes)
from .harmonic import (TABLE_ORDER_CAP, character_table, is_monomial, linear_characters,
                       linear_phases)
from .metric import ball_dimension
from .pipeline import PipelineConfig, freiman_ball
from .setops import appendix_growth_check, growth_profile, normalize_set
from .spectra import large_spectrum, lspec_doubling_cover, spectral_energy_check

class InputError(Exception):
    """Maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit 1: argparse's exit 2 means a failed hypothesis here.
    Each parser refuses the arguments it leaves unread, so that a command's are
    refused in its name, not by the top-level parser they are handed back to.
    A negative rational such as -1/128 is read as a value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|^-\d+/\d+$")

    def parse_known_args(self, args=None, namespace=None):
        namespace, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return namespace, unread

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# spec parsing


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _group_from_file(path: str) -> FiniteGroup:
    spec = _load_json(path)
    try:
        return build_group(spec)
    except (GroupValidationError, KeyError, TypeError) as exc:
        raise InputError(f"bad group spec in {path}: {exc}") from exc


def _set_spec(path: str) -> dict:
    """A set spec as schemas/set_spec.json reads it: 'indices', and optionally
    's_indices' and a 'normalize' object of boolean flags; nothing else. The
    index lists come back as lists of ints."""
    spec = _load_json(path)
    if not isinstance(spec, dict) or "indices" not in spec:
        raise InputError(f"bad set spec in {path}: expected an object with 'indices'")
    unknown = [k for k in spec if k not in ("indices", "s_indices", "normalize")]
    if unknown:
        raise InputError(f"bad set spec in {path}: unknown key {unknown[0]!r}")
    for key in ("indices", "s_indices"):
        if key in spec:
            spec[key] = _integer_list(spec[key], key, path)
    norm = spec.get("normalize", {})
    if not isinstance(norm, dict):
        raise InputError(f"bad set spec in {path}: 'normalize' must be an object")
    for key, flag in norm.items():
        if key not in ("symmetrize", "add_identity", "conjugation_close"):
            raise InputError(f"bad set spec in {path}: unknown key 'normalize.{key}'")
        if not isinstance(flag, bool):
            raise InputError(f"bad set spec in {path}: 'normalize.{key}' must be true or false")
    return spec


def _integer_list(value: Any, key: str, path: str) -> list[int]:
    """A set spec's index list, its integers read as group specs read them."""
    if not isinstance(value, list) or not all(map(_is_integer, value)):
        raise InputError(f"bad set spec in {path}: {key!r} must be a list of integers")
    return [int(i) for i in value]


def _indices_subset(group: FiniteGroup, indices: list[int], key: str, path: str) -> GroupSubset:
    bad = [i for i in indices if not 0 <= i < group.order]
    if bad:
        raise InputError(f"bad set spec in {path}: {key} {bad} outside 0..{group.order - 1}")
    return GroupSubset.from_indices(group, indices)


def _set_from_file(group: FiniteGroup, path: str) -> tuple[GroupSubset, Optional[GroupSubset]]:
    """Returns (A, S). S comes from the optional 's_indices' key and defaults to None."""
    spec = _set_spec(path)
    a = _indices_subset(group, spec["indices"], "indices", path)
    if spec.get("normalize"):
        a = normalize_set(a, **spec["normalize"])
    s = None
    if "s_indices" in spec:
        s = _indices_subset(group, spec["s_indices"], "s_indices", path)
    return a, s


def _charset_from_file(group: FiniteGroup, path: str) -> CharSet:
    """For Bohr-side commands the set spec indexes into Lin(G), sorted by phase
    tuple. 'symmetrize' adds each character's negation and 'add_identity' the
    trivial character 0; 'conjugation_close' adds nothing, since conjugation
    fixes every linear character. There is no S on this side."""
    spec = _set_spec(path)
    if "s_indices" in spec:
        raise InputError(f"bad set spec in {path}: 's_indices' has no meaning for characters")
    idx = spec["indices"]
    lp = linear_phases(group)
    count = len(lp.keys)
    bad = [i for i in idx if not 0 <= i < count]
    if bad:
        raise InputError(
            f"bad set spec in {path}: character indices {bad} outside 0..{count - 1}")
    norm = spec.get("normalize", {})
    if norm.get("symmetrize"):
        idx = idx + lp.negations(idx).tolist()
    if norm.get("add_identity"):
        idx = idx + [0]
    return CharSet.from_indices(group, idx)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expects a rational like 1/16, got {text!r}") from exc


# ---------------------------------------------------------------------------
# serialization


def _f(x: float) -> float:
    """Round a float to 12 significant digits for stable report bytes."""
    return float(f"{float(x):.12g}")


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _phases(char) -> list[str]:
    return [_frac(p) for p in char.phases]


def _hyps(records) -> list[dict]:
    return [{"name": r.name, "status": r.status, "detail": r.detail} for r in records]


def _flatten(prefix: str, value: Any, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append((prefix, ";".join(str(v) for v in value)))
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, str(value)))


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_scalar(value: Any) -> Optional[str]:
    """A JSON scalar as json.dumps writes it, or None for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    return None


# the exact types whose lists are written by one join over one formatter
_JSON_RUNS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float}


def _to_json(value: Any, pad: str = "") -> str:
    """json.dumps(value, indent=2, ensure_ascii=True) for a value nested at
    `pad`, byte for byte, with json's TypeErrors; a list of one scalar type
    is one str.join."""
    scalar = _json_scalar(value)
    if scalar is not None:
        return scalar
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        run = _JSON_RUNS.get(kinds.pop()) if len(kinds) == 1 else None
        body = sep.join(map(run, value) if run else [_to_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(f"{_json_key(k)}: {_to_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key: Any) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _json_scalar(key)
    return encode_basestring_ascii(key)


def emit_report(report: dict, fmt: str, out: Optional[str],
                csv_rows: Optional[list[list]] = None) -> None:
    """Write the report to stdout, or to `out` in place: through an existing
    file or symlink without truncating it at open (on ext4 a truncate to zero
    makes close() start writeback), then cut to the report's length. A
    non-regular target (a FIFO, /dev/null) is written and not truncated. Any
    OSError is an InputError naming `out`."""
    if fmt == "json":
        payload = _to_json(report) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_rows is not None:
            writer.writerows(csv_rows)
        else:
            flat: list[tuple[str, str]] = []
            _flatten("", report["result"], flat)
            writer.writerow(["key", "value"])
            writer.writerows(flat)
        payload = buf.getvalue()
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()       # flushes, then cuts the file at the written length
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (summary, result, csv_rows, exit_code)


def _cmd_group_info(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    part = conjugacy_classes(g)
    lin = linear_characters(g)
    exponent = math.lcm(*g.element_orders)
    abelian = len(part.classes) == g.order
    center = sum(1 for c in part.classes if len(c) == 1)
    result = {
        "name": g.name,
        "order": g.order,
        "abelian": abelian,
        "class_count": len(part.classes),
        "class_sizes": list(part.sizes),
        "linear_character_count": len(lin),
        "center_size": center,
        "exponent": exponent,
    }
    summary = (f"{g.name}: order {g.order}, "
               f"{'abelian' if abelian else 'nonabelian'}, "
               f"{len(part.classes)} classes, {len(lin)} linear characters")
    return summary, result, None, 0


def _cmd_growth(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, _ = _set_from_file(g, args.set)
    profile, fitted = growth_profile(a, args.nmax)
    result = {
        "set_size": len(a),
        "n_max": args.nmax,
        "sizes": list(profile.sizes),
        "saturated_at": profile.saturated_at,
        "fitted_d": _f(fitted.d),
        "witness_n": fitted.witness_n,
    }
    rows = [["n", "size"]] + [[n, s] for n, s in enumerate(profile.sizes)][1:]
    summary = (f"growth of |A|={len(a)} in {g.name}: sizes up to n={args.nmax}, "
               f"fitted d={_f(fitted.d)}")
    return summary, result, rows, 0


def _cmd_chartable(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    table = character_table(g)
    part = conjugacy_classes(g)
    reps = [c[0] for c in part.classes]
    entries = []
    for i in range(table.size):
        vals = table.class_values(i)
        entries.append([[_f(v.real), _f(v.imag)] for v in vals])
    result = {
        "order": g.order,
        "class_count": len(part.classes),
        "class_sizes": list(part.sizes),
        "class_representatives": reps,
        "dims": list(table.dims),
        "table": entries,
    }
    rows = [["char", "dim"] + [f"class{j}" for j in range(len(reps))]]
    for i, entry in enumerate(entries):
        rows.append([i, table.dims[i]] + [f"{re}+{im}j" for re, im in entry])
    summary = f"character table of {g.name}: {len(part.classes)} classes, dims {list(table.dims)}"
    return summary, result, rows, 0


def _cmd_monomial(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    try:
        ok, certs = is_monomial(g, max_order_cap=args.cap)
    except CapExceededError as exc:
        if not args.cap < g.order <= TABLE_ORDER_CAP:   # raising --cap cannot help
            raise
        raise CapExceededError(f"{exc} (raise --cap to allow a larger search)") from None
    cert_rows = []
    for c in certs:
        cert_rows.append({
            "char_index": c.char_index,
            "dim": c.dim,
            "matched": c.matched,
            "subgroup_size": len(c.subgroup) if c.subgroup is not None else None,
            "linear_phases": _phases(c.linear) if c.linear is not None else None,
        })
    result = {"monomial": ok, "certificates": cert_rows}
    verb = "is monomial" if ok else "is NOT monomial"
    summary = f"{g.name} {verb} ({sum(c.matched for c in certs)}/{len(certs)} characters certified)"
    return summary, result, None, 0


def _cmd_bohr(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    chars = _charset_from_file(g, args.set)
    delta = args.delta
    b = linbohr(chars, delta)
    result = {
        "delta": _frac(delta),
        "charset_size": len(chars),
        "ball_size": len(b),
        "ball_indices": list(b.indices()),
    }
    summary = f"LinBohr of {len(chars)} characters at delta={_frac(delta)}: {len(b)} of {g.order} elements"
    return summary, result, None, 0


def _cmd_lspec(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, _ = _set_from_file(g, args.set)
    eps = args.eps
    spec = large_spectrum(a, eps)
    result = {
        "eps": _frac(eps),
        "set_size": len(a),
        "threshold_sq": _frac(spec.threshold_sq),
        "spectrum_size": len(spec.members),
        "values": [_f(v) for v in spec.values],
        "member_phases": [_phases(c) for c in spec.members.chars],
    }
    rows = [["member", "value"]] + [[i, _f(v)] for i, v in enumerate(spec.values)]
    summary = f"LSpec(A, {_frac(eps)}) on {g.name}: {len(spec.members)} characters"
    return summary, result, rows, 0


def _cmd_metric_dim(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    chars = _charset_from_file(g, args.set)
    delta = args.delta
    dim, witness = ball_dimension(bohr_norm(chars), delta)
    result = {
        "delta": _frac(delta),
        "charset_size": len(chars),
        "dimension": _f(dim),
        "witness_radius": _frac(witness) if witness is not None else None,
        "doubling_bound": 2 * len(chars),
    }
    summary = f"Bohr-norm ball dimension at delta={_frac(delta)}: {_f(dim)} (bound {2 * len(chars)})"
    return summary, result, None, 0


def _cmd_energy(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, s = _set_from_file(g, args.set)
    rep = spectral_energy_check(g, s if s is not None else a, a, args.eps, args.k)
    result = {
        "eta": _frac(rep.eta),
        "k": rep.k,
        "hypotheses": _hyps(rep.hypotheses),
        "lhs": _f(rep.lhs) if rep.lhs is not None else None,
        "mid": _f(rep.mid) if rep.mid is not None else None,
        "rhs": _f(rep.rhs) if rep.rhs is not None else None,
        "lhs_ge_mid": rep.lhs_ge_mid,
        "mid_ge_rhs": rep.mid_ge_rhs,
        "float_route_residual": (_f(rep.float_route_residual)
                                 if rep.float_route_residual is not None else None),
        "nonlinear_scan_ok": rep.nonlinear_scan_ok,
    }
    failed = [h.name for h in rep.hypotheses if h.status == "fails"]
    if failed:
        return (f"energy: hypothesis not met ({failed[0]})", result, None, 2)
    summary = (f"energy at eta={_frac(rep.eta)}, k={rep.k}: "
               f"lhs {_f(rep.lhs)} >= mid {_f(rep.mid)} >= rhs {_f(rep.rhs)}")
    return summary, result, None, 0


def _cmd_cover(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, s = _set_from_file(g, args.set)
    rep = lspec_doubling_cover(g, s if s is not None else a, a, args.eps, args.d)
    result = {
        "eps": _frac(rep.eps),
        "d": _f(rep.d),
        "hypotheses": _hyps(rep.hypotheses),
        "branch": rep.branch,
        "r": rep.r,
        "k_eta_d": rep.k_eta_d,
        "window_clipped": rep.window_clipped,
        "window": [{"k": w.k, "size": w.size, "bound_ok": w.bound_ok} for w in rep.window],
        "scan": [list(t) for t in rep.scan],
        "x_size": len(rep.x) if rep.x is not None else None,
        "x_phases": [_phases(c) for c in rep.x.chars] if rep.x is not None else None,
        "covering_ok": rep.covering_ok,
        "eps_inverse": _frac(rep.eps_inverse) if rep.eps_inverse is not None else None,
    }
    rows = [["k", "size", "bound_ok"]] + [[w.k, w.size, w.bound_ok] for w in rep.window]
    failed = [h.name for h in rep.hypotheses if h.status == "fails"]
    if failed:
        return (f"cover: hypothesis not met ({failed[0]})", result, rows, 2)
    if rep.branch == "small":
        summary = f"cover: Small branch, eps_inverse={_frac(rep.eps_inverse)}"
    else:
        summary = f"cover: branch covered with r={rep.r}, |X|={len(rep.x)}"
    return summary, result, rows, 0


def _freiman_result(rep) -> dict:
    return {
        "group": {"name": rep.group.name, "order": rep.group.order},
        "restricted": rep.restricted,
        "working_order": rep.working_order,
        "a_indices": list(rep.a.indices()),
        "l": rep.l,
        "k_ratio": _frac(rep.k_ratio),
        "d_fit": _f(rep.d_fit),
        "d_prime": _f(rep.d_prime),
        "d_eff": _f(rep.d_eff),
        "eps": _frac(rep.eps),
        "constant_c": _f(rep.constant_c),
        "branch": rep.branch,
        "x_phases": [_phases(c) for c in rep.x.chars],
        "spectrum_size": len(rep.spectrum),
        "ball_size": len(rep.ball),
        "ball_indices": list(rep.ball.indices()),
        "ball_parent_indices": (list(rep.ball_parent_indices)
                                if rep.ball_parent_indices is not None else None),
        "checks": [{"name": c.name, "lhs_size": c.lhs_size,
                    "rhs_size": c.rhs_size, "ok": c.ok} for c in rep.checks],
        "aa_inv_in_ball": rep.aa_inv_in_ball,
        "dim_ball": _f(rep.dim_ball),
        "dim_functional": _f(rep.dim_functional),
        "size_ratio": _frac(rep.size_ratio),
        "log_size_ratio": _f(rep.log_size_ratio),
        "size_functional": _f(rep.size_functional),
        "ledger": [{"stage": e.stage, "hypothesis": e.hypothesis,
                    "status": e.status, "witness": e.witness} for e in rep.ledger],
    }


def _cmd_freiman(args) -> tuple[str, dict, Optional[list], int]:
    # the config checks its options before any group is built
    config = PipelineConfig(constant_c=args.constant_c, n_max=args.nmax,
                            epsilon_override=args.eps)
    g = _group_from_file(args.group)
    a, _ = _set_from_file(g, args.set)
    rep = freiman_ball(g, a, config)
    result = _freiman_result(rep)
    # the theorem is conditional on monomiality; an unmet hypothesis is exit 2
    monomial_fails = any(e.status == "fails" and "monomial" in e.hypothesis
                         for e in rep.ledger)
    code = 2 if monomial_fails else 0
    summary = (f"freiman on {g.name}: AA^-1 inside Bohr ball of {len(rep.ball)} elements "
               f"(ratio {_frac(rep.size_ratio)}, dim {_f(rep.dim_ball)})")
    if code == 2:
        summary = f"freiman on {g.name}: monomiality hypothesis not met (descriptive run)"
    return summary, result, None, code


def _cmd_appendix(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, _ = _set_from_file(g, args.set)
    rep = appendix_growth_check(a, args.nmax)
    result = {
        "tripling": _frac(rep.tripling),
        "cover_size": len(rep.cover.cover_set),
        "separation_ok": rep.cover.separation_ok,
        "inclusion_ok": rep.cover.inclusion_ok,
        "cover_sizes": list(rep.cover_sizes),
        "rows": [{"n": r.n, "size_a_n": r.size_a_n, "size_d_n": r.size_d_n,
                  "bound": r.bound, "inclusion_ok": r.inclusion_ok} for r in rep.rows],
        "all_ok": rep.all_ok,
    }
    rows = [["n", "size_a_n", "size_d_n", "bound", "inclusion_ok"]]
    rows += [[r.n, r.size_a_n, r.size_d_n, r.bound, r.inclusion_ok] for r in rep.rows]
    if not rep.all_ok:
        raise FalsifiedError("covering chain failed", rep)
    summary = (f"appendix on {g.name}: tripling {_frac(rep.tripling)}, "
               f"cover size {len(rep.cover.cover_set)}, all inclusions hold up to n={args.nmax}")
    return summary, result, rows, 0


_HANDLERS = {
    "group-info": _cmd_group_info,
    "growth": _cmd_growth,
    "chartable": _cmd_chartable,
    "monomial": _cmd_monomial,
    "bohr": _cmd_bohr,
    "lspec": _cmd_lspec,
    "metric-dim": _cmd_metric_dim,
    "energy": _cmd_energy,
    "cover": _cmd_cover,
    "freiman": _cmd_freiman,
    "appendix": _cmd_appendix,
}


# ---------------------------------------------------------------------------
# entry point


# how argparse reads and describes each option
_OPTIONS = {
    "--group": {"help": "path to a group spec JSON file"},
    "--set": {"help": "path to a set spec JSON file"},
    "--eps": {"type": _fraction, "help": "rational epsilon (or eta), e.g. 1/16"},
    "--delta": {"type": _fraction, "help": "rational radius, e.g. 1/6"},
    "--k": {"type": int, "help": "convolution power / fold count"},
    "--d": {"type": float, "help": "dimension parameter"},
    "--nmax": {"type": int, "help": "largest power to examine"},
    "--constant-c": {"type": float, "help": "constant in the radius formula"},
    "--cap": {"type": int, "help": "order cap for the subgroup search"},
    "--out": {"help": "report file path (default: stdout)"},
    "--format": {"choices": ("json", "csv")},
}
_REQUIRED = object()

# the options each command reads besides --group, --out and --format, each
# with its default or _REQUIRED; a command missing here reads only those three
_COMMAND_OPTIONS = {
    "growth": {"--set": _REQUIRED, "--nmax": _REQUIRED},
    "monomial": {"--cap": SUBGROUP_ORDER_CAP},
    "bohr": {"--set": _REQUIRED, "--delta": _REQUIRED},
    "lspec": {"--set": _REQUIRED, "--eps": _REQUIRED},
    "metric-dim": {"--set": _REQUIRED, "--delta": _REQUIRED},
    "energy": {"--set": _REQUIRED, "--eps": _REQUIRED, "--k": _REQUIRED},
    "cover": {"--set": _REQUIRED, "--eps": _REQUIRED, "--d": 1.0},
    "freiman": {"--set": _REQUIRED, "--eps": None, "--nmax": PipelineConfig.n_max,
                "--constant-c": PipelineConfig.constant_c},
    "appendix": {"--set": _REQUIRED, "--nmax": 10},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first `main` call: each
    `add_argument` reads the terminal size, and `parse_args` leaves the parser
    as it found it and returns a fresh namespace. A command's options are
    spelled in full, so that `bohr --d` is refused, not read as `--delta`."""
    p = _Parser(prog="monoball", description="finite-group Bohr set and spectrum experiments")
    commands = p.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sub = commands.add_parser(name, allow_abbrev=False)
        options = {"--group": _REQUIRED, **_COMMAND_OPTIONS.get(name, {}),
                   "--out": None, "--format": "json"}
        for flag, default in options.items():
            given = {"required": True} if default is _REQUIRED else {"default": default}
            sub.add_argument(flag, **given, **_OPTIONS[flag])
    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        summary, result, rows, code = _HANDLERS[args.command](args)
        report = {
            "tool": "monoball",
            "version": __version__,
            "command": args.command,
            "result": result,
        }
        emit_report(report, args.format, args.out, csv_rows=rows)
        print(summary)
        return code
    except (InputError, ValueError) as exc:     # GroupValidationError, CapExceededError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FalsifiedError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
