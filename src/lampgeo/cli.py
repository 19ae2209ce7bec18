"""Command-line front end.

Every metric, verifier, and map operation is reachable as a subcommand
with machine-readable output.  Exit codes: 0 = success with no violations,
1 = a verification found violations (or a witness), 2 = usage or domain
errors, 3 = an internal error, reported in one line with no traceback.
Identical invocations produce byte-identical output; the three verify
commands take --timing, and only then add elapsed_ms to their reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .base_groups import (
    bs_delta,
    lamp_delta,
    sol_delta,
    sol_invariant_form,
)
from .dl_graph import (
    MAX_BALL_VERTICES,
    ball,
    ball_graph,
    bfs_distance,
    distances_from,
    dl_distance,
    dl_inv,
    dl_mul,
    identity_vertex,
)
from .errors import DomainError, InternalError, ParseError
from .maps import (
    BlockPerm,
    apply,
    bilip_constants,
    delta_distortion,
    induced_vertex_map,
    is_generalized_affine,
    is_identity_ball_map,
    isometry_search,
    parallelogram_preserving,
    qi_distortion,
)
from .quads import (
    BSFamily,
    GeneratorSet,
    LampFamily,
    Quad,
    QuadParams,
    SolFamily,
    calibrate_schwartz,
    classify,
    lamp_sigma_obstruction,
    sigma_admissible,
    telescope_decompose,
    telescoping_identity_holds,
    verify_lamp_claim,
    verify_schwartz,
    verify_taback,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _family(args):
    # a family command's --n defaults to None, so that a given one is told apart
    if args.family != "sol":
        if args.matrix is not None:
            raise DomainError(f"--family {args.family} takes no --matrix")
        return (LampFamily if args.family == "lamp" else BSFamily)(2 if args.n is None else args.n)
    if args.n is not None:
        raise DomainError("--family sol takes no --n; --matrix gives its group")
    if not args.matrix:
        raise DomainError("--matrix a,b,c,d is required for the sol family")
    return SolFamily(sol_invariant_form(formats.parse_matrix(args.matrix)))


def _parse_points(fam, text: str, option: str | None = None) -> list:
    """The points of a ';'-list; with an option name, exactly four of them."""
    parts = text.split(";")
    if option and len(parts) != 4:
        raise DomainError(f"{option} needs 'p1;p2;p3;p4'")
    return [fam.parse(p.strip()) for p in parts]


def _parse_center(args):
    return formats.parse_vertex(args.center, args.n) if args.center else identity_vertex(args.n)


def emit_report(payload, fmt: str | None) -> str:
    """Serialize a command's payload with a stable field order; a string
    payload (a one-line text answer, a DOT graph) is written as it is."""
    if isinstance(payload, str):
        return payload
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "text":
        return "".join(f"{key}: {json.dumps(value)}\n" for key, value in payload.items())
    return "".join(",".join(map(str, row)) + "\n" for row in [payload["header"], *payload["rows"]])


def _report_out(args, report):
    payload = report.to_jsonable(include_timing=args.timing)
    return payload, (EXIT_VIOLATIONS if report.violations else EXIT_OK)


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code), and run writes the payload
# ---------------------------------------------------------------------------

def cmd_delta(args):
    fam = _family(args)
    p = fam.parse(args.p)
    q = fam.parse(args.q)
    if isinstance(fam, LampFamily):
        value, gap = lamp_delta(p, q)
        payload = {"delta": value, "gap": gap}
    elif isinstance(fam, BSFamily):
        payload = {"delta": bs_delta(p, q)}
    else:
        payload = {"delta": sol_delta(fam.ctx, p, q), "form": list(fam.ctx.form)}
    if args.format == "text":
        return f"{payload['delta']}\n", EXIT_OK
    return payload, EXIT_OK


def cmd_dist(args):
    n = args.n
    pair_options = [opt for opt, given in (("--u", args.u is not None), ("--v", args.v is not None),
                                           ("--check-bfs", args.check_bfs)) if given]
    if args.radius is not None and pair_options:
        raise DomainError(f"dist --radius prints a table and takes no {', '.join(pair_options)}")
    if (args.u is None) != (args.v is None):
        raise DomainError("dist needs both --u and --v")
    if args.u is not None:
        if args.format == "csv":
            raise DomainError("this command has no tabular output; use json or text")
        u = formats.parse_vertex(args.u, n)
        v = formats.parse_vertex(args.v, n)
        closed = dl_distance(u, v)
        if args.format == "text":
            return f"{closed}\n", EXIT_OK
        payload = {"u": formats.format_vertex(u), "v": formats.format_vertex(v),
                   "closed_form": closed}
        if args.check_bfs:
            payload["bfs"] = bfs_distance(u, v, closed + 1)
        return payload, EXIT_OK
    if args.radius is None:
        raise DomainError("dist needs either --u and --v, or --radius for a table")
    if args.format == "text":
        raise DomainError("dist --radius prints a table; use csv or json")
    if args.radius < 0:
        raise DomainError("radius must be >= 0")
    # d(u, v) = d(e, u^-1 v) and u^-1 v lies within 2r of e, so one radius-2r table answers every
    # pair of the r-ball; only its budget refusal is reworded, not the source's modulus error
    source = identity_vertex(n)
    try:
        table = distances_from(source, 2 * args.radius)
    except DomainError as err:
        raise DomainError(f"dist --radius {args.radius} reads every pair from the radius-{2 * args.radius} "
                          f"BFS table, which could exceed {MAX_BALL_VERTICES} vertices") from err
    verts = sorted((w for w, d in table.items() if d <= args.radius),
                   key=lambda w: (w.cursor, w.config.entries))
    names = [formats.format_vertex(w) for w in verts]
    inverses = [dl_inv(w) for w in verts]
    rows = [(names[i], names[j], dl_distance(u, v), table[dl_mul(inverses[i], v)])
            for i, u in enumerate(verts) for j, v in enumerate(verts[i + 1:], i + 1)]
    return {"header": ["u", "v", "closed_form", "bfs"], "rows": rows}, EXIT_OK


def cmd_ball(args):
    center = _parse_center(args)
    names = [formats.format_vertex(v)
             for v in sorted(ball(center, args.radius), key=lambda w: (w.cursor, w.config.entries))]
    if args.format == "csv":
        return {"header": ["vertex"], "rows": [(name,) for name in names]}, EXIT_OK
    return {"center": formats.format_vertex(center), "radius": args.radius,
            "size": len(names), "vertices": names}, EXIT_OK


def cmd_export_dot(args):
    verts, _, adj = ball_graph(_parse_center(args), args.radius)
    edges = [(verts[i], verts[j]) for i, js in enumerate(adj) for j in js if i < j]
    return formats.export_dot(verts, edges, coset_colors=args.coset_colors), EXIT_OK


def cmd_quad_classify(args):
    fam = _family(args)
    p1, p2, p3, p4 = _parse_points(fam, args.points, "--points")
    quad = Quad(fam, p1, p2, p3, p4)
    params = QuadParams(formats.parse_number(args.eps), formats.parse_number(args.M))
    res = classify(quad, params)
    payload = {"classification": res.kind.value}
    if res.reason:
        payload["reason"] = res.reason
    if len(set(map(fam.sort_key, quad.points))) == 4:
        sides = ((p1, p2), (p2, p3), (p3, p4), (p4, p1))
        payload["side_deltas"] = [str(fam.delta(x, y)) for x, y in sides]
        payload["diagonal_deltas"] = [str(fam.delta(p1, p3)), str(fam.delta(p2, p4))]
    return payload, EXIT_OK


def cmd_verify_lamp_claim(args):
    return _report_out(args, verify_lamp_claim(args.S, args.window_width, n=args.n,
                                               hypotheses="relaxed" if args.relaxed else "full"))


def cmd_verify_taback(args):
    return _report_out(args, verify_taback(args.n, args.eps, args.M, args.bound, (args.kmin, args.kmax)))


def cmd_verify_schwartz(args):
    ctx = sol_invariant_form(formats.parse_matrix(args.matrix))
    if args.calibrate:
        return _report_out(args, calibrate_schwartz(ctx, args.eps, args.box))
    if args.M is None:
        raise DomainError("verify schwartz needs --M unless --calibrate is given")
    return _report_out(args, verify_schwartz(ctx, args.eps, args.M, args.box))


def cmd_telescope(args):
    fam = _family(args)
    quad = Quad(fam, *_parse_points(fam, args.quad, "--quad"))
    chain = telescope_decompose(quad, GeneratorSet(fam, tuple(_parse_points(fam, args.sigma))))
    return {
        "steps": len(chain),
        "chain": [[fam.fmt(p) for p in (q.p1, q.p2, q.p3, q.p4)] for q in chain],
        "corner_relations_exact": all(q.corner_holds() for q in chain),
        "telescoping_identity": telescoping_identity_holds(quad, chain),
    }, EXIT_OK


def cmd_sigma_check(args):
    fam = _family(args)
    sigma = GeneratorSet(fam, tuple(_parse_points(fam, args.sigma)))
    params = QuadParams(formats.parse_number(args.eps), formats.parse_number(args.M))
    result = sigma_admissible(sigma, params)
    if result is True:
        return {"admissible": True}, EXIT_OK
    v, w = result
    return {"admissible": False, "witness": [fam.fmt(v), fam.fmt(w)]}, EXIT_VIOLATIONS


def cmd_sigma_obstruct(args):
    fam = LampFamily(args.n)
    sigma = GeneratorSet(fam, tuple(_parse_points(fam, args.sigma)))
    params = QuadParams(formats.parse_number(args.eps), formats.parse_number(args.M))
    v, w = lamp_sigma_obstruction(sigma, params, formats.parse_window(args.window))
    return {"witness": [fam.fmt(v), fam.fmt(w)]}, EXIT_VIOLATIONS


def cmd_map_apply(args):
    m = formats.parse_map(args.map, args.n)
    x = formats.parse_config(args.x, args.n)
    y = apply(m, x)
    if args.format == "text":
        return formats.format_config(y) + "\n", EXIT_OK
    return {"map": formats.format_map(m), "input": formats.format_config(x),
            "output": formats.format_config(y)}, EXIT_OK


def cmd_map_bilip(args):
    m = formats.parse_map(args.map, args.n)
    if not isinstance(m, BlockPerm):
        raise DomainError("bilip constants are measured for blockperm maps")
    rep = bilip_constants(m, m.m if args.padding is None else args.padding)
    return {"K_lower": str(rep.K_lower), "K_upper": str(rep.K_upper),
            "exhaustive": rep.exhaustive, "window": list(rep.window)}, EXIT_OK


def cmd_map_ppq(args):
    m = formats.parse_map(args.map, args.n)
    window = formats.parse_window(args.window)
    result = parallelogram_preserving(m, window, args.n)
    if result is True:
        strict_affine = is_generalized_affine(m, window, n=args.n)
        affine_up_to_inv = strict_affine or is_generalized_affine(m, window, up_to_inversion=True, n=args.n)
        return {"parallelogram_preserving": True,
                "generalized_affine": strict_affine,
                "generalized_affine_up_to_inversion": affine_up_to_inv}, EXIT_OK
    # a map that breaks a parallelogram is not generalized affine either way
    a, v, w = result
    fmt = formats.format_config
    return {
        "parallelogram_preserving": False,
        "generalized_affine": False,
        "generalized_affine_up_to_inversion": False,
        "witness": {"a": fmt(a), "v": fmt(v), "w": fmt(w)},
        "psi(a+v)+psi(a+w)": fmt(apply(m, a + v) + apply(m, a + w)),
        "psi(a+v+w)+psi(a)": fmt(apply(m, a + v + w) + apply(m, a)),
    }, EXIT_VIOLATIONS


def cmd_map_delta_distortion(args):
    m = formats.parse_map(args.map, args.n)
    if not isinstance(m, BlockPerm):
        raise DomainError("delta distortion is measured for blockperm maps")
    rep = delta_distortion(m, formats.parse_window(args.window))
    return {
        "min_ratio": str(rep.min_ratio),
        "max_ratio": str(rep.max_ratio),
        "K": str(rep.K),
        "bounds": [str(1 / (rep.K * rep.K)), str(rep.K * rep.K)],
        "min_pair": [formats.format_config(p) for p in rep.min_pair],
        "max_pair": [formats.format_config(p) for p in rep.max_pair],
    }, EXIT_OK


def cmd_map_qi_distortion(args):
    m = formats.parse_map(args.map, args.n)
    vm = induced_vertex_map(m)
    value = qi_distortion(vm, args.radius, n=args.n)
    return {"radius": args.radius, "additive_distortion": value}, EXIT_OK


def cmd_isometry_search(args):
    if args.max_results is not None and args.max_results < 1:
        raise DomainError(f"--max-results must be >= 1, got {args.max_results}")
    maps_found = isometry_search(
        args.radius,
        height_preserving=not args.no_height_preserving,
        orientation_preserving=not args.no_orientation_preserving,
        fix_identity_coset=not args.no_fix_identity_coset,
        pattern_preserving=not args.no_pattern_preserving,
        n=args.n,
        max_results=args.max_results,
    )
    payload = {
        "radius": args.radius,
        "maps_found": len(maps_found),
        "all_identity": all(is_identity_ball_map(m) for m in maps_found),
    }
    if args.list_maps:
        payload["maps"] = [
            {formats.format_vertex(v): formats.format_vertex(w) for v, w in sorted(
                m.items(), key=lambda kv: (kv[0].cursor, kv[0].config.entries))}
            for m in maps_found
        ]
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p, family=False, format_choices=("json", "text"), modulus=True, timing=False):
    if modulus:
        p.add_argument("--n", type=int, default=None if family else 2, help="modulus / base (default 2)")
    if format_choices:
        p.add_argument("--format", choices=format_choices, default="json")
    if timing:
        p.add_argument("--timing", action="store_true", help="include elapsed_ms in reports")
    p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    if family:
        p.add_argument("--family", choices=["lamp", "bs", "sol"], default="lamp")
        p.add_argument("--matrix", default=None, help="SL(2,Z) matrix 'a,b,c,d' (sol family)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lampgeo",
        description="Exact lamplighter / Baumslag-Solitar / SOL metric machinery "
                    "and brute-force verifiers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="boundary product delta(p, q)")
    _add_common(p, family=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("dist", help="DL(n,n) distance (closed form; --radius for a CSV table)")
    _add_common(p, format_choices=("json", "csv", "text"))
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--check-bfs", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("ball", help="enumerate a metric ball")
    _add_common(p, format_choices=("json", "csv"))
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", default=None)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("export-dot", help="DOT graph of a metric ball")
    _add_common(p, format_choices=())
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", default=None)
    p.add_argument("--coset-colors", action="store_true")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("quad", help="quadrilateral operations")
    quad_sub = p.add_subparsers(dest="quad_command", required=True)
    pc = quad_sub.add_parser("classify", help="classify four points against (eps, M)")
    _add_common(pc, family=True)
    pc.add_argument("--points", required=True, help="'p1;p2;p3;p4'")
    pc.add_argument("--eps", required=True)
    pc.add_argument("--M", required=True)
    pc.set_defaults(func=cmd_quad_classify)

    p = sub.add_parser("verify", help="exhaustive desk-scale verifiers")
    ver_sub = p.add_subparsers(dest="verify_command", required=True)
    pv = ver_sub.add_parser("lamp-claim", help="large lamplighter quadrilaterals are parallelograms")
    _add_common(pv, timing=True)
    pv.add_argument("--S", type=int, required=True)
    pv.add_argument("--window", dest="window_width", type=int, required=True)
    pv.add_argument("--relaxed", action="store_true",
                    help="only the two printed side hypotheses (admits witnesses)")
    pv.set_defaults(func=cmd_verify_lamp_claim)
    pv = ver_sub.add_parser("taback", help="Z[1/n] quadrilaterals are parallelograms")
    _add_common(pv, timing=True)
    pv.add_argument("--eps", type=int, required=True)
    pv.add_argument("--M", type=int, required=True)
    pv.add_argument("--bound", type=int, required=True, help="numerator bound")
    pv.add_argument("--kmin", type=int, required=True)
    pv.add_argument("--kmax", type=int, required=True)
    pv.set_defaults(func=cmd_verify_taback)
    pv = ver_sub.add_parser("schwartz", help="SOL lattice quadrilaterals are parallelograms")
    _add_common(pv, modulus=False, timing=True)
    pv.add_argument("--matrix", required=True)
    pv.add_argument("--eps", type=int, required=True)
    pv.add_argument("--M", type=int, default=None)
    pv.add_argument("--box", type=int, required=True)
    pv.add_argument("--calibrate", action="store_true", help="find and verify at M*")
    pv.set_defaults(func=cmd_verify_schwartz)

    p = sub.add_parser("telescope", help="decompose a parallelogram over a generator set")
    _add_common(p, family=True)
    p.add_argument("--quad", required=True, help="'p1;p2;p3;p4'")
    p.add_argument("--sigma", required=True, help="';'-separated generator points")
    p.set_defaults(func=cmd_telescope)

    p = sub.add_parser("sigma", help="generator-set checks")
    sig_sub = p.add_subparsers(dest="sigma_command", required=True)
    ps = sig_sub.add_parser("check", help="do all pairs span (eps, M)-parallelograms?")
    _add_common(ps, family=True)
    ps.add_argument("--sigma", required=True)
    ps.add_argument("--eps", required=True)
    ps.add_argument("--M", required=True)
    ps.set_defaults(func=cmd_sigma_check)
    ps = sig_sub.add_parser("obstruct", help="find the failing pair of a generating set")
    _add_common(ps)
    ps.add_argument("--sigma", required=True)
    ps.add_argument("--eps", required=True)
    ps.add_argument("--M", required=True)
    ps.add_argument("--window", required=True)
    ps.set_defaults(func=cmd_sigma_obstruct)

    p = sub.add_parser("map", help="base-group map operations")
    map_sub = p.add_subparsers(dest="map_command", required=True)
    pm = map_sub.add_parser("apply", help="evaluate a map on a configuration")
    _add_common(pm)
    pm.add_argument("--map", required=True)
    pm.add_argument("--x", required=True)
    pm.set_defaults(func=cmd_map_apply)
    pm = map_sub.add_parser("bilip", help="exhaustive boundary biLipschitz constants")
    _add_common(pm)
    pm.add_argument("--map", required=True)
    pm.add_argument("--padding", type=int, default=None)
    pm.set_defaults(func=cmd_map_bilip)
    pm = map_sub.add_parser("ppq", help="parallelogram-preservation test with witness")
    _add_common(pm)
    pm.add_argument("--map", required=True)
    pm.add_argument("--window", required=True)
    pm.set_defaults(func=cmd_map_ppq)
    pm = map_sub.add_parser("delta-distortion", help="delta ratio scan against [1/K^2, K^2]")
    _add_common(pm)
    pm.add_argument("--map", required=True)
    pm.add_argument("--window", required=True)
    pm.set_defaults(func=cmd_map_delta_distortion)
    pm = map_sub.add_parser("qi-distortion", help="additive distortion of the induced vertex map")
    _add_common(pm)
    pm.add_argument("--map", required=True)
    pm.add_argument("--radius", type=int, required=True)
    pm.set_defaults(func=cmd_map_qi_distortion)

    p = sub.add_parser("isometry-search", help="pattern-preserving ball isometry enumeration")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--no-height-preserving", action="store_true")
    p.add_argument("--no-orientation-preserving", action="store_true",
                   help="let edge directions flip; heights fix them, so this changes "
                        "nothing without --no-height-preserving")
    p.add_argument("--no-fix-identity-coset", action="store_true")
    p.add_argument("--no-pattern-preserving", action="store_true")
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--list-maps", action="store_true")
    p.set_defaults(func=cmd_isometry_search)

    return ap


def run(argv=None, stdout=None) -> int:
    """Entry point returning the exit code.  The command returns its payload,
    and only then is it written, to stdout or to --out."""
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # argparse has read its ints under Python's int-to-string limit; formats bounds every literal and a
    # budget every computed int, so the command runs without the limit and prints exact ints of any size
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, code = args.func(args)
        text = emit_report(payload, getattr(args, "format", None))
        if not args.out:
            stdout.write(text)
            return code
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error (library bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
