"""Batch front-end: parse group/set specs from JSON, dispatch one experiment,
emit a machine-readable report.

Exit codes: 0 all assertions passed, 1 input error, 2 a stated hypothesis
fails (the report is still written, descriptively), 3 an exactly-verifiable
claim was falsified.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from .bohr import CharSet, bohr_norm, linbohr
from .errors import CapExceededError, FalsifiedError, GroupValidationError, HypothesisError
from .groups import FiniteGroup, GroupSubset, build_group, conjugacy_classes
from .harmonic import MONOMIAL_ORDER_CAP, character_table, is_monomial, linear_characters
from .metric import ball_dimension
from .pipeline import PipelineConfig, freiman_ball
from .setops import appendix_growth_check, growth_profile, normalize_set
from .spectra import large_spectrum, lspec_doubling_cover, spectral_energy_check

COMMANDS = ("group-info", "growth", "chartable", "monomial", "bohr", "lspec",
            "metric-dim", "energy", "cover", "freiman", "appendix")


class InputError(Exception):
    """Maps to exit 1."""


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


def _group_from_file(path: Optional[str]) -> FiniteGroup:
    if path is None:
        raise InputError("this command needs --group")
    spec = _load_json(path)
    try:
        return build_group(spec)
    except (GroupValidationError, KeyError, TypeError) as exc:
        raise InputError(f"bad group spec in {path}: {exc}") from exc


def _indices_subset(group: FiniteGroup, indices: Any, path: str) -> GroupSubset:
    if not isinstance(indices, list) or not all(isinstance(i, int) for i in indices):
        raise InputError(f"bad set spec in {path}: 'indices' must be a list of integers")
    bad = [i for i in indices if not 0 <= i < group.order]
    if bad:
        raise InputError(f"bad set spec in {path}: indices {bad} outside 0..{group.order - 1}")
    return GroupSubset.from_indices(group, indices)


def _set_from_file(group: FiniteGroup, path: Optional[str]) -> tuple[GroupSubset, Optional[GroupSubset]]:
    """Returns (A, S). S comes from the optional 's_indices' key and defaults to None."""
    if path is None:
        raise InputError("this command needs --set")
    spec = _load_json(path)
    if not isinstance(spec, dict) or "indices" not in spec:
        raise InputError(f"bad set spec in {path}: expected an object with 'indices'")
    a = _indices_subset(group, spec["indices"], path)
    norm = spec.get("normalize", {})
    if norm:
        a = normalize_set(a,
                          symmetrize=bool(norm.get("symmetrize", False)),
                          add_identity=bool(norm.get("add_identity", False)),
                          conjugation_close=bool(norm.get("conjugation_close", False)))
    s = None
    if "s_indices" in spec:
        s = _indices_subset(group, spec["s_indices"], path)
    return a, s


def _charset_from_file(group: FiniteGroup, path: Optional[str]) -> CharSet:
    """For Bohr-side commands the set spec indexes into Lin(G), sorted by phase tuple."""
    if path is None:
        raise InputError("this command needs --set")
    spec = _load_json(path)
    if not isinstance(spec, dict) or "indices" not in spec:
        raise InputError(f"bad set spec in {path}: expected an object with 'indices'")
    lin = linear_characters(group)
    idx = spec["indices"]
    if not isinstance(idx, list) or not all(isinstance(i, int) for i in idx):
        raise InputError(f"bad set spec in {path}: 'indices' must be a list of integers")
    bad = [i for i in idx if not 0 <= i < len(lin)]
    if bad:
        raise InputError(
            f"bad set spec in {path}: character indices {bad} outside 0..{len(lin) - 1}")
    return CharSet.build(group, [lin[i] for i in idx])


def _parse_fraction(text: Optional[str], flag: str) -> Optional[Fraction]:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag} expects a rational like 1/16, got {text!r}") from exc


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


def emit_report(report: dict, fmt: str, out: Optional[str],
                csv_rows: Optional[list[list]] = None) -> None:
    if fmt == "json":
        payload = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
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
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
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
    table = character_table(g, seed=args.seed)
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
    ok, certs = is_monomial(g, seed=args.seed, max_order_cap=args.cap)
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
    delta = _parse_fraction(args.delta, "--delta")
    if delta is None:
        raise InputError("bohr needs --delta")
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
    eps = _parse_fraction(args.eps, "--eps")
    if eps is None:
        raise InputError("lspec needs --eps")
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
    delta = _parse_fraction(args.delta, "--delta")
    if delta is None:
        raise InputError("metric-dim needs --delta")
    dim, witness = ball_dimension(bohr_norm(chars), delta)
    if witness is None:
        witness_out = None
    elif isinstance(witness, Fraction):
        witness_out = _frac(witness)
    else:
        witness_out = _f(witness)
    result = {
        "delta": _frac(delta),
        "charset_size": len(chars),
        "dimension": _f(dim),
        "witness_radius": witness_out,
        "doubling_bound": 2 * len(chars),
    }
    summary = f"Bohr-norm ball dimension at delta={_frac(delta)}: {_f(dim)} (bound {2 * len(chars)})"
    return summary, result, None, 0


def _cmd_energy(args) -> tuple[str, dict, Optional[list], int]:
    g = _group_from_file(args.group)
    a, s = _set_from_file(g, args.set)
    eta = _parse_fraction(args.eps, "--eps")
    if eta is None:
        raise InputError("energy needs --eps (the level eta)")
    if args.k is None:
        raise InputError("energy needs --k")
    rep = spectral_energy_check(g, s if s is not None else a, a, eta, args.k)
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
    eps = _parse_fraction(args.eps, "--eps")
    if eps is None:
        raise InputError("cover needs --eps")
    rep = lspec_doubling_cover(g, s if s is not None else a, a, eps, args.d)
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
    g = _group_from_file(args.group)
    a, _ = _set_from_file(g, args.set)
    config = PipelineConfig(
        constant_c=args.constant_c,
        n_max=args.nmax if args.nmax is not None else 12,
        epsilon_override=_parse_fraction(args.eps, "--eps"),
    )
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
    n_max = args.nmax if args.nmax is not None else 10
    rep = appendix_growth_check(a, n_max)
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
               f"cover size {len(rep.cover.cover_set)}, all inclusions hold up to n={n_max}")
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="monoball",
                                description="finite-group Bohr set and spectrum experiments")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--group", help="path to a group spec JSON file")
    p.add_argument("--set", help="path to a set spec JSON file")
    p.add_argument("--eps", help="rational epsilon (or eta), e.g. 1/16")
    p.add_argument("--delta", help="rational radius, e.g. 1/6")
    p.add_argument("--k", type=int, help="convolution power / fold count")
    p.add_argument("--d", type=float, default=1.0, help="dimension parameter")
    p.add_argument("--nmax", type=int, help="largest power to examine")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized decompositions")
    p.add_argument("--constant-c", type=float, default=1.0, dest="constant_c",
                   help="constant in the radius formula")
    p.add_argument("--out", help="report file path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cap", type=int, default=MONOMIAL_ORDER_CAP,
                   help="order cap for subgroup searches")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        summary, result, rows, code = _HANDLERS[args.command](args)
        report = {
            "tool": "monoball",
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "result": result,
        }
        emit_report(report, args.format, args.out, csv_rows=rows)
        print(summary)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc} (raise --cap to allow a larger search)", file=sys.stderr)
        return 1
    except (GroupValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 2
    except FalsifiedError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
