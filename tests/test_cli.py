import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lampgeo import InternalError, ParseError, cli, dl_graph
from lampgeo.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, run
from lampgeo.dl_graph import (
    MAX_BALL_VERTICES,
    ball,
    bfs_distance,
    distances_from,
    dl_distance,
    identity_vertex,
    neighbors,
)
from lampgeo.base_groups import BSNumber
from lampgeo.formats import export_dot, format_vertex, parse_bs, parse_number, parse_vertex


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def test_dist_text():
    code, out = invoke("dist", "--u", "|0", "--v", "0:1|0", "--format", "text")
    assert code == EXIT_OK and out == "2\n"


def test_dist_json_with_bfs():
    code, out = invoke("dist", "--u", "|0", "--v", "0:1,1:1|2", "--check-bfs")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["closed_form"] == 2 and data["bfs"] == 2


def test_dist_table_csv():
    code, out = invoke("dist", "--radius", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[0] == "u,v,closed_form,bfs"
    assert len(lines) == 1 + 5 * 4 // 2  # C(5,2) pairs


def test_delta_families():
    assert invoke("delta", "--family", "lamp", "--p", "0:1,3:1", "--q", "",
                  "--format", "text") == (EXIT_OK, "8\n")
    assert invoke("delta", "--family", "bs", "--p", "12", "--q", "0",
                  "--format", "text") == (EXIT_OK, "3\n")
    assert invoke("delta", "--family", "sol", "--matrix", "2,1,1,1",
                  "--p", "1,2", "--q", "0,0", "--format", "text") == (EXIT_OK, "5\n")


def ball_edges(vertices):
    """Edges of the subgraph induced by a vertex set, each once, from neighbors."""
    out = set()
    for v in vertices:
        for w in neighbors(v):
            if w in vertices:
                out.add((v, w) if (v.cursor, v.config.entries) <= (w.cursor, w.config.entries) else (w, v))
    return out


@pytest.mark.parametrize("n, center, radii", [
    (2, None, (0, 1, 2, 3, 4)),
    (2, "-2:1,1:1|-3", (1, 2, 3)),
    (3, None, (0, 1, 2, 3)),
    (3, "0:2,4:1|5", (1, 2)),
])
def test_export_dot_equals_ball_edges_rendering(n, center, radii):
    # export-dot reads its edges from ball_graph's adjacency; the rendering
    # of ball and ball_edges is the reference
    c = parse_vertex(center, n) if center else identity_vertex(n)
    for radius in radii:
        for colors in ((), ("--coset-colors",)):
            argv = ["export-dot", "--n", str(n), "--radius", str(radius), *colors]
            if center:
                argv.append(f"--center={center}")
            code, out = invoke(*argv)
            verts = ball(c, radius)
            assert code == EXIT_OK
            assert out == export_dot(verts, ball_edges(verts), coset_colors=bool(colors))


def test_dist_table_refuses_text_before_its_bfs(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("BFS run")

    monkeypatch.setattr(cli, "distances_from", fail)
    code, out = invoke("dist", "--radius", "1", "--format", "text")
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("export-dot", "--radius", "1"),
    ("delta", "--family", "lamp", "--p", "0:1", "--q", "", "--format", "text"),
    ("ball", "--radius", "1"),
], ids=" ".join)
def test_out_gets_exactly_what_stdout_gets(argv, tmp_path):
    path = tmp_path / "out"
    code, out = invoke(*argv)
    assert invoke(*argv, "--out", str(path)) == (code, "")
    assert code == EXIT_OK and path.read_text() == out


def test_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    code, out = invoke("delta", "--p", "0:1", "--q", "", "--out", str(tmp_path / "missing" / "x.json"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_refused_command_leaves_out_untouched(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("kept\n")
    code, out = invoke("verify", "lamp-claim", "--S", "0", "--window", "4", "--out", str(path))
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err.startswith("error:")
    assert path.read_text() == "kept\n"


def test_ball_and_dot():
    code, out = invoke("ball", "--radius", "1")
    data = json.loads(out)
    assert code == EXIT_OK and data["size"] == 5
    code, out = invoke("export-dot", "--radius", "1")
    assert code == EXIT_OK
    assert out.startswith("graph dl {")
    assert out.count("--") == 4
    assert out.rstrip().endswith("}")


def test_quad_classify():
    code, out = invoke("quad", "classify", "--family", "lamp",
                       "--points", ";0:1;0:1,9:1;9:1", "--eps", "2", "--M", "256")
    data = json.loads(out)
    assert code == EXIT_OK and data["classification"] == "parallelogram"


def test_verify_lamp_claim_exit_codes():
    code, out = invoke("verify", "lamp-claim", "--S", "1", "--window", "6")
    data = json.loads(out)
    assert code == EXIT_OK and data["violations"] == []
    code, out = invoke("verify", "lamp-claim", "--S", "2", "--window", "8", "--relaxed")
    data = json.loads(out)
    assert code == EXIT_VIOLATIONS and data["violations"]


def test_verify_taback():
    code, out = invoke("verify", "taback", "--eps", "1", "--M", "4",
                       "--bound", "64", "--kmin", "-3", "--kmax", "3")
    data = json.loads(out)
    assert code == EXIT_OK and data["violations"] == [] and not data["vacuous"]


def test_verify_schwartz_calibrate():
    code, out = invoke("verify", "schwartz", "--matrix", "2,1,1,1",
                       "--eps", "1", "--box", "20", "--calibrate")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["extras"]["M_star"] >= 1 and not data["vacuous"]


def test_verify_schwartz_finds_sides_past_the_box():
    # the side (0,1) -> (1,-1) has a coordinate of 2, outside the box: both
    # sides at p3 range over the doubled box
    argv = ("verify", "schwartz", "--matrix=-3,-1,-5,-2", "--eps", "4", "--M", "5", "--box", "1")
    code, out = invoke(*argv)
    data = json.loads(out)
    assert code == EXIT_VIOLATIONS and not data["vacuous"]
    assert ["0,0", "0,1", "1,-1", "1,1"] in data["violations"]


def test_map_ppq_counterexample():
    code, out = invoke("map", "ppq", "--map", "blockperm:m=3:100>111,111>100",
                       "--window", "3")
    data = json.loads(out)
    assert code == EXIT_VIOLATIONS
    assert data["parallelogram_preserving"] is False
    assert data["psi(a+v)+psi(a+w)"] == "0:1,1:1"
    assert data["psi(a+v+w)+psi(a)"] == "0:1,2:1"
    assert {data["witness"]["v"], data["witness"]["w"]} == {"0:1", "2:1"}


@pytest.mark.parametrize("shift", [3, 4, 100])
def test_map_ppq_finds_a_shift_past_the_window_width(shift):
    code, out = invoke("map", "ppq", "--map", f"shift:{shift}", "--window", "3")
    assert code == EXIT_OK
    assert json.loads(out) == {"parallelogram_preserving": True, "generalized_affine": True,
                               "generalized_affine_up_to_inversion": True}


@pytest.mark.parametrize("argv,scans", [
    (("--map", "blockperm:m=3:100>111,111>100", "--window", "3"), 1),  # README line
    (("--map", "shift:1", "--window", "3"), 1),
    (("--map", "invert", "--window=-1:2"), 2),
])
def test_map_ppq_scan_count(argv, scans, monkeypatch):
    from lampgeo import maps
    calls = []
    scan = maps.parallelogram_preserving

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(maps, "parallelogram_preserving", counted)
    monkeypatch.setattr(cli, "parallelogram_preserving", counted)
    code, _ = invoke("map", "ppq", *argv)
    assert code in (EXIT_OK, EXIT_VIOLATIONS)
    assert len(calls) == scans


def _run_child(argv, traced=False):
    # run in a child process, so that a command with no budget is killed at
    # the timeout instead of running on; returns the process and its seconds.
    # Its stdout holds the seconds, the output lines, whether numpy was
    # loaded after the import and after the run, and the tracemalloc peak in
    # bytes of the run when traced (0 otherwise)
    script = ("import io, sys, time, tracemalloc\n"
              "from lampgeo.cli import run\n"
              "imported = 'numpy' in sys.modules\n"
              + ("tracemalloc.start()\n" if traced else "") +
              "start = time.perf_counter()\n"
              "out = io.StringIO()\n"
              f"code = run({list(argv)!r}, stdout=out)\n"
              "print(time.perf_counter() - start, out.getvalue().count('\\n'), imported,\n"
              "      'numpy' in sys.modules, tracemalloc.get_traced_memory()[1])\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=20)
    return proc, float(proc.stdout.split()[0])


def _child_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_child(argv):
    # the CLI's own entry point in a child process, its stdout as written
    return subprocess.run([sys.executable, "-m", "lampgeo.cli", *argv], capture_output=True, text=True,
                          env=_child_env(), timeout=20)


@pytest.mark.parametrize("argv, numpy_after", [
    (("ball", "--radius", "2"), "False"),
    (("map", "bilip", "--map", "blockperm:m=3:100>111,111>100"), "True"),
], ids=["ball", "bilip-n2"])
def test_numpy_loads_only_for_the_n2_bilipschitz_scan(argv, numpy_after):
    # importing numpy costs 40-115 ms and about 13 MB, and only the packed n = 2
    # scan of bilip_constants uses it
    proc, _ = _run_child(argv)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.split()[2:4] == ["False", numpy_after]


def test_ball_past_vertex_budget_exits_2_quickly():
    proc, seconds = _run_child(["ball", "--radius", "40"])
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert seconds < 1.0


def _child_peak(argv, address_limit=None):
    # run the CLI in a grandchild, its address space capped at address_limit
    # bytes if given, and return its exit code and peak RSS in KB.  A child
    # that execs carries its parent's peak RSS over, so the peak is read by a
    # small intermediate process as the ru_maxrss of its child
    limit = ("import resource\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({address_limit}, {address_limit}))\n"
             if address_limit else "")
    command = (limit + "import io, sys\nfrom lampgeo.cli import run\n"
               f"sys.exit(run({list(argv)!r}, stdout=io.StringIO()))\n")
    script = ("import resource, subprocess, sys\n"
              f"code = subprocess.run([sys.executable, '-c', {command!r}]).returncode\n"
              "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    code, maxrss_kb = map(int, proc.stdout.split())
    return code, maxrss_kb


def test_isometry_search_at_the_largest_radius_peaks_below_100_mb():
    # radius 12 is the largest the vertex budget admits at n = 2 (35,392
    # vertices); with one bit per vertex in a mask per vertex, the search
    # held memory quadratic in the ball and peaked at about 200 MB
    code, maxrss_kb = _child_peak(["isometry-search", "--radius", "12"])
    assert code == EXIT_OK
    assert maxrss_kb < 100 * 1024


@pytest.mark.parametrize("argv", [("--S", "1", "--window", "1671"), ("--n", "3", "--S", "1", "--window", "834"),
                                  ("--S", "7", "--window", "33"), ("--n", "6", "--S", "3", "--window", "12")],
                         ids=["S1-W1671", "n3-S1-W834", "S7-W33", "n6-S3-W12"])
def test_full_lamp_claim_near_the_corner_budget_peaks_below_64_mb(argv):
    # inputs near the corner budget; an index that held every large d at
    # once peaked at 583, 578, 171 and 124 MB, and whole rows at 19, 19, 47
    # and 79 MB (the last pairs 180 x 900 sides at its lowest field).  Each
    # slice of a row is dropped once checked, so 512 MB of address space
    # is ample
    code, maxrss_kb = _child_peak(["verify", "lamp-claim", *argv], address_limit=512 << 20)
    assert code == EXIT_OK
    assert maxrss_kb < 64 * 1024


def test_dist_table_past_ball_budget_exits_2():
    # a radius-12 table reads the radius-24 BFS table from e, which could pass
    # MAX_BALL_VERTICES; distances_from refuses before that level
    proc, seconds = _run_child(["dist", "--radius", "12"])
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert f"could exceed {MAX_BALL_VERTICES} vertices" in proc.stderr
    assert seconds < 5.0


@pytest.mark.parametrize("eps", ["-3", "0"])
def test_verify_schwartz_below_eps_1_exits_2(eps):
    # a negative eps reached math.isqrt in the step lister and exited 3;
    # eps 0 printed a vacuous report
    for extra in (["--M", "4"], ["--calibrate"]):
        proc, _ = _run_child(["verify", "schwartz", "--matrix", "2,1,1,1", "--eps", eps,
                              "--box", "5", *extra])
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"error: epsilon must be >= 1, got {eps}\n"


@pytest.mark.parametrize("radius", [7, 9])
def test_dist_table_refusal_names_the_radius_asked_for(radius, capsys):
    # the table is read from a radius-2r BFS; the refusal names both
    code, _ = invoke("dist", "--radius", str(radius))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: dist --radius {radius} reads every pair from the "
                                       f"radius-{2 * radius} BFS table, which could exceed "
                                       f"{MAX_BALL_VERTICES} vertices\n")


@pytest.mark.parametrize("argv, seconds_cap, lines", [
    (("dist", "--n", "3", "--radius", "3"), 1.0, None),
    (("dist", "--radius", "5", "--format", "csv"), 5.0, 1 + 21528),
], ids=["n3-r3", "n2-r5"])
def test_dist_tables_within_ball_budget_answer(argv, seconds_cap, lines):
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_OK and seconds < seconds_cap
    if lines is not None:
        assert int(proc.stdout.split()[1]) == lines


def _dist_rows_by_pair_bfs(n, radius):
    # oracle: the per-pair loop `dist --radius` ran before it read one table
    # by left translation, one meet-in-the-middle BFS for every vertex pair
    verts = sorted(ball(identity_vertex(n), radius), key=lambda w: (w.cursor, w.config.entries))
    rows = []
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            closed = dl_distance(u, v)
            rows.append([format_vertex(u), format_vertex(v), closed, bfs_distance(u, v, closed + 1)])
    return rows


@pytest.mark.parametrize("n, radius", [(2, 3), (3, 2), (4, 2), (10, 1)])
def test_dist_table_matches_per_pair_bfs(n, radius):
    code, out = invoke("dist", "--n", str(n), "--radius", str(radius), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == _dist_rows_by_pair_bfs(n, radius)


def test_dist_table_runs_one_bfs(monkeypatch):
    tables, pair_searches = [], []

    def counted_table(*args):
        tables.append(args)
        return distances_from(*args)

    def counted_pair(*args):
        pair_searches.append(args)
        return bfs_distance(*args)

    for module in (dl_graph, cli):
        monkeypatch.setattr(module, "distances_from", counted_table, raising=False)
        monkeypatch.setattr(module, "bfs_distance", counted_pair)
    code, _ = invoke("dist", "--radius", "3")
    assert code == EXIT_OK
    assert tables == [(identity_vertex(2), 6)] and pair_searches == []


@pytest.mark.parametrize("argv", [
    ("map", "ppq", "--map", "shift:1", "--window", "16"),
    ("map", "ppq", "--map", "shift:1", "--n", "3", "--window", "7"),
    ("map", "delta-distortion", "--map", "blockperm:m=3:100>111,111>100", "--window", "16"),
    ("map", "bilip", "--n", "3", "--map", "blockperm:m=3:012>021,021>012"),
    ("map", "bilip", "--map", "blockperm:m=3:100>111,111>100", "--padding", "10"),
], ids=["ppq", "ppq-n3", "delta-distortion", "bilip-n3", "bilip-width-23"])
def test_map_scans_past_pair_budget_exit_2_quickly(argv):
    # unbounded, these run for hours (the pair scans) or days (width 23)
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert seconds < 1.0


FAR = str(10 ** 15)


@pytest.mark.parametrize("argv", [
    ("dist", "--u", f"0:1,{FAR}:1|0", "--v", "|0"),
    ("dist", "--u", f"{FAR}:1|0", "--v", "0:1|0"),
    ("ball", "--center", f"0:1|{FAR}", "--radius", "1"),
    ("map", "qi-distortion", "--map", f"translate:{FAR}:1", "--radius", "2"),
    ("map", "apply", "--map", "translate:0:1", "--x", f"{FAR}:1"),
], ids=["one-config", "aligned-pair", "far-write", "qi-translate", "translate"])
def test_lamp_configs_past_span_budget_exit_2_quickly(argv):
    # a config is one int with a digit field for every index of its span:
    # these would ask for about 10^15 bits
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "MAX_LAMP_BITS" in proc.stderr
    assert seconds < 1.0


@pytest.mark.parametrize("argv", [
    ("dist", "--u", f"{FAR}:1|0", "--v", "|0", "--format", "text"),
    ("ball", "--center", f"|{FAR}", "--radius", "1"),
    ("map", "apply", "--map", f"shift:{FAR}", "--x", "0:1", "--format", "text"),
    ("map", "qi-distortion", "--map", f"shift:{FAR}", "--radius", "2"),
], ids=["zero-pair", "zero-ball", "shift", "qi-shift"])
def test_far_indices_within_span_budget_answer_quickly(argv):
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_OK and seconds < 1.0


def test_verify_schwartz_past_box_budget_exits_2_quickly():
    # the row lister is O(box); unbounded, box 10^8 runs for minutes
    proc, seconds = _run_child(["verify", "schwartz", "--matrix", "2,1,1,1", "--eps", "1",
                                "--M", "5", "--box", "100000000"])
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "box_halfwidth" in proc.stderr
    assert seconds < 1.0


@pytest.mark.parametrize("argv", [
    ("verify", "schwartz", "--matrix", "2,1,1,1", "--eps", "100", "--box", "100", "--calibrate"),
    ("verify", "taback", "--n", "2", "--eps", "3", "--M", "64", "--bound", "1024",
     "--kmin", "-3000", "--kmax", "3000"),
    ("verify", "taback", "--n", "2", "--eps", "2000", "--M", "4000001", "--bound", "1024",
     "--kmin", "-5", "--kmax", "5"),
    ("verify", "lamp-claim", "--S", "2", "--window", "14", "--relaxed"),
    ("verify", "lamp-claim", "--S", "10", "--window", "40"),
    ("verify", "lamp-claim", "--S", "13", "--window", "28", "--relaxed"),
    ("verify", "lamp-claim", "--S", "18", "--window", "38", "--relaxed"),
    ("verify", "lamp-claim", "--S", "20", "--window", "42", "--relaxed"),
], ids=["schwartz-eps", "taback-exponents", "taback-eps", "lamp-claim-relaxed", "lamp-claim-full",
        "lamp-claim-relaxed-wide", "lamp-claim-relaxed-s18", "lamp-claim-relaxed-s20"])
def test_verifiers_past_work_budgets_exit_2_quickly(argv):
    # without the corner and relaxed-tuple budgets each ran for
    # more than 15 s; the wide relaxed input built 2^26 interiors, several GB;
    # listing every side first took 1.2 s at S = 18 and 12.6 M sides at S = 20
    start = time.perf_counter()
    proc, _ = _run_child(argv)
    assert time.perf_counter() - start < 2.0  # interpreter start included
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "taback", "--eps", "3", "--M", "64", "--bound", "1024", "--kmin", "-10000", "--kmax", "10000"),
    ("verify", "taback", "--eps", "1000000", "--M", "1000000000001", "--bound", "0",
     "--kmin", "-5", "--kmax", "5"),
    ("verify", "taback", "--eps", "3", "--M", "64", "--bound", "0",
     "--kmin", "-100000", "--kmax", "100000"),
    ("verify", "lamp-claim", "--S", "100000000", "--window", "3"),
    ("verify", "lamp-claim", "--S", "15000", "--window", "30001", "--relaxed"),
    ("verify", "lamp-claim", "--S", "1", "--window", "8192", "--relaxed"),
    ("verify", "lamp-claim", "--S", "8", "--window", "28"),
    ("verify", "lamp-claim", "--S", "1", "--window", "1800"),
    ("verify", "lamp-claim", "--S", "8192", "--window", "8192"),
], ids=["taback-lists", "taback-no-sides", "taback-no-sides-wide", "lamp-claim-piece",
        "lamp-claim-count-digits", "lamp-claim-large-points", "lamp-claim-corner-budget",
        "lamp-claim-corner-pairs", "lamp-claim-full-count-digits"])
def test_verifiers_allocate_nothing_large_before_they_answer(argv):
    # before their budgets looked first, these took 2 s and 241 MB of RSS to
    # exit 2, 6.7 s and 1.3 GB to print a vacuous report, 56 MB to print one,
    # exited 3 on a 4,520-digit side count, and took 90 MB to exit 2; full
    # lamp-claim at S = 8, window 28 (2,815^2 side pairs) ran for 1.5 s
    # before its side count was refused on the corner budget, at window
    # 1,800 it built part of its index, 3.1 s and 661 MB, before its corner
    # pairs were; the widest full window must not print its squared side
    # count (4,933 digits), and Taback with no side point must not build its
    # exponent tables either
    proc, seconds = _run_child(argv, traced=True)
    assert proc.returncode in (EXIT_OK, EXIT_USAGE) and seconds < 1.0
    assert int(proc.stdout.split()[4]) < 16 << 20
    if proc.returncode == EXIT_USAGE:
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_taback_space_test_costs_no_division_per_exponent():
    # the space test split each index candidate by n one exponent at a time
    # and kept every rejected one, so exponents -160..160 took 7.6 s and
    # 104 MB of RSS on a 2-vCPU VM
    argv = ("verify", "taback", "--eps", "3", "--M", "64", "--bound", "1024",
            "--kmin", "-160", "--kmax", "160")
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_OK and seconds < 2.0
    proc, _ = _run_child(argv, traced=True)
    assert proc.returncode == EXIT_OK and int(proc.stdout.split()[4]) < 32 << 20


def test_full_lamp_claim_wide_window_hashes_every_bit():
    # an int hashes modulo 2^61 - 1, so keyed by packed ints the index put
    # points of window 896 whose lamps agree mod 61 in one slot, and the run
    # took 4.7 s on a 2-vCPU VM
    proc, seconds = _run_child(["verify", "lamp-claim", "--S", "1", "--window", "896"])
    assert proc.returncode == EXIT_OK and seconds < 2.5


def test_relaxed_lamp_claim_without_large_points_skips_its_scan():
    # window 24 <= 2S + 1 holds no large point, so nothing is checked; the
    # scan over its 28,671^2 side pairs ran for more than 120 s
    proc, seconds = _run_child(["verify", "lamp-claim", "--S", "12", "--window", "24", "--relaxed"])
    assert proc.returncode == EXIT_OK and seconds < 2.0
    code, out = invoke("verify", "lamp-claim", "--S", "12", "--window", "24", "--relaxed")
    data = json.loads(out)
    assert data["vacuous"] and data["count_checked"] == 0
    assert data["search_space"]["side_candidates"] == 28_671


def test_sigma_obstruct_precondition_follows_n():
    # at n = 3, M = 3 = n*eps^2 is below the precondition; two adjacent single
    # lamps then span a parallelogram, and no witness pair exists
    code, _ = invoke("sigma", "obstruct", "--n", "3", "--sigma", "0:1;1:1",
                     "--eps", "1", "--M", "3", "--window", "2")
    assert code == EXIT_USAGE
    code, out = invoke("sigma", "obstruct", "--n", "3", "--sigma", "0:1;1:1",
                       "--eps", "1", "--M", "4", "--window", "2")
    assert code == EXIT_VIOLATIONS and len(json.loads(out)["witness"]) == 2


def test_map_apply_and_bilip():
    code, out = invoke("map", "apply", "--map", "shift:2", "--x", "0:1,3:1",
                       "--format", "text")
    assert code == EXIT_OK and out == "-2:1,1:1\n"
    code, out = invoke("map", "bilip", "--map", "blockperm:m=3:100>111,111>100")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data == {"K_lower": "2", "K_upper": "4", "exhaustive": True, "window": [-3, 6]}


def test_block_string_digit_int_cannot_read_is_a_usage_error(capsys):
    # '²' is a digit to str.isdigit but not to int()
    code, out = invoke("map", "apply", "--map", "blockperm:m=1:²>0", "--x", "")
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err == "error: col 14: expected a string of digits, got '²'\n"


def test_map_qi_distortion():
    code, out = invoke("map", "qi-distortion", "--map", "translate:0:1", "--radius", "3")
    data = json.loads(out)
    assert code == EXIT_OK and data["additive_distortion"] == 0
    code, out = invoke("map", "qi-distortion", "--map", "blockperm:m=3:100>111,111>100", "--radius", "5",
                       "--format", "text")
    assert code == EXIT_OK and out == "radius: 5\nadditive_distortion: 4\n"


def test_isometry_search_lists_the_identity_map():
    code, out = invoke("isometry-search", "--radius", "2", "--list-maps")
    ball = ["|-1", "-1:1|-1", "|0", "|1", "0:1|1"]  # the radius-1 ball, by cursor, then config
    assert code == EXIT_OK and out == json.dumps({"radius": 2, "maps_found": 1, "all_identity": True,
                                                  "maps": [{v: v for v in ball}]}, indent=2) + "\n"


def test_sigma_obstruct_wide_window_reads_only_the_generators_columns():
    # a dense row per generator across 10^8 indices raised MemoryError after
    # 22 s; the elimination reads the first |sigma| + 1 columns
    proc, seconds = _run_child(["sigma", "obstruct", "--sigma", "0:1;1:1", "--eps", "1", "--M", "3",
                                "--window", "0:100000000"])
    assert proc.returncode == EXIT_USAGE and seconds < 1.0
    assert proc.stderr == "error: generator set does not generate the window: index 2 missing\n"


def test_sigma_obstruct_composite_n_names_the_first_column_with_no_unit_pivot(capsys):
    # 3 is no unit mod 6, so index 0 is the first column the elimination mod 6
    # cannot clear; elimination mod each prime named index 1, the first
    # column with no pivot mod 2
    code, _ = invoke("sigma", "obstruct", "--n", "6", "--sigma", "0:3", "--eps", "1", "--M", "7",
                     "--window", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: generator set does not generate the window: index 0 missing\n"


@pytest.mark.parametrize("argv", [
    ("quad", "classify", "--family", "lamp", "--points", ";0:1;0:1,9:1;9:1",
     "--eps", "1e100000000", "--M", "1e100000001"),
    ("quad", "classify", "--family", "sol", "--matrix", "2,1,1,1", "--points", "0,0;1,0;1,1;0,1",
     "--eps", "1e5000", "--M", "2"),
], ids=["lamp-exponent-10^8", "sol-exponent-5000"])
def test_exact_number_past_4300_digits_exits_2_quickly(argv):
    # Fraction built 10^(10^8) (still running at 30 s), and a 5,001-digit
    # eps passed Python's int-to-string limit when printed (exit 3)
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_USAGE and seconds < 1.0
    assert proc.stderr == "error: col 0: exact number past 4300 digits in its numerator or denominator\n"


@pytest.mark.parametrize("text, value", [
    ("1e4299", 10 ** 4299), ("-1e-4299", Fraction(-1, 10 ** 4299)), ("0.5e4300", 5 * 10 ** 4299),
    ("1e" + "0" * 4299 + "1", 10), ("1e4300", "past 4300 digits"), ("1e-4300", "past 4300 digits"),
    ("1_0e4299", "past 4300 digits"), ("1e" + "0" * 4300 + "1", "expected an exact number"),
])
def test_exact_number_digit_bound_is_exact(text, value):
    # 10^4299 has 4,300 digits, and 10^4300 one more; an exponent of more
    # digits is no literal, as int() and so Fraction refuse it
    if isinstance(value, str):
        with pytest.raises(ParseError, match=value):
            parse_number(text)
    else:
        assert parse_number(text) == value


@pytest.mark.parametrize("text", [" " * 10 ** 5 + "x", "1" * 10 ** 5 + "x",
                                  "1" * 50_000 + "." + "1" * 50_000 + "x"])
def test_long_non_literal_is_refused_in_linear_time(text):
    # the digit bound's pattern admits one split of the text, as Fraction's does
    start = time.perf_counter()
    with pytest.raises(ParseError, match="expected an exact number"):
        parse_number(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("decimal, power", [("1e4299", "1*10^4299"), ("1e-4299", "1*10^-4299"),
                                            ("1e4300", "1*10^4300"), ("1e-4300", "1*10^-4300")])
def test_power_literal_digit_bound_agrees_with_the_decimal_form(decimal, power):
    # at n = 10 both forms write the same numerator and denominator, so the
    # rule admits and refuses them alike, without building 10^|k|
    if decimal.endswith("4300"):
        for text in (decimal, power):
            with pytest.raises(ParseError, match="past 4300 digits"):
                parse_bs(text, 10)
    else:
        assert parse_bs(decimal, 10) == parse_bs(power, 10) == BSNumber(1, int(decimal[2:]), 10)


@pytest.mark.parametrize("argv", [
    ("delta", "--family", "bs", "--p", "1e100000000", "--q", "0"),
    *(("quad", "classify", "--family", "bs", "--points", points, "--eps", "1", "--M", "3")
      for points in ("0;1*2^-1000000000;1;2", "0;1*2^-20000;1;2", "0;1*2^100000;1;2", "0;1e5000;1;2")),
    ("sigma", "check", "--family", "bs", "--sigma", "1e200000;1", "--eps", "1", "--M", "3"),
], ids=["delta-1e100000000", "classify-2^-10^9", "classify-2^-20000", "classify-2^100000",
        "classify-1e5000", "sigma-1e200000"])
def test_z1n_literal_past_4300_digits_exits_2_quickly(argv):
    # Z[1/n] literals went to an unbounded Fraction or power of n: the first
    # gave no answer in 25 s, the second exited 3 after 10 s
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_USAGE and seconds < 1.0
    assert proc.stderr == "error: col 0: exact number past 4300 digits in its numerator or denominator\n"


def _decimal(value: int) -> str:
    # str() of an int past the interpreter's int-to-string limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_delta_past_the_int_string_limit_prints_exactly(fmt):
    # 2^15000 has 4,516 digits, past Python's int-to-string limit: exit 3
    proc = _cli_child(["delta", "--p", "0:1,15000:1", "--q", "", "--format", fmt])
    delta = _decimal(2 ** 15000)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert proc.stdout == (f'{{\n  "delta": {delta},\n  "gap": 15000\n}}\n' if fmt == "json" else f"{delta}\n")


def test_bs_side_deltas_past_the_int_string_limit_print_exactly():
    # the literals pass the digit rule, but the sides 2^14000 - 1 and the
    # diagonal 2^28000 - 1 have about 4,200 and 8,400 digits: exit 3
    proc = _cli_child(["quad", "classify", "--family", "bs", "--points", "0;1*2^14000;1;1*2^-14000",
                       "--eps", "1", "--M", "3"])
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    report = json.loads(proc.stdout)
    side = _decimal(2 ** 14000 - 1)
    assert report["side_deltas"] == ["1", side, side, "1"]
    assert report["diagonal_deltas"] == ["1", _decimal(2 ** 28000 - 1)]


def test_run_restores_the_int_string_limit(monkeypatch, capsys):
    # tests call run in process, so the limit it lifts must come back on
    # every way out: an answer, an argparse refusal and a literal refusal
    limit = sys.get_int_max_str_digits()
    for argv in [("ball", "--radius", "1"), ("ball", "--radius", "x"),
                 ("delta", "--family", "bs", "--p", "1e5000", "--q", "0")]:
        invoke(*argv)
        assert sys.get_int_max_str_digits() == limit, argv

    def fail(args):
        raise RuntimeError(str(sys.get_int_max_str_digits()))

    monkeypatch.setattr(cli, "cmd_ball", fail)
    assert invoke("ball", "--radius", "1")[0] == EXIT_INTERNAL
    assert capsys.readouterr().err.endswith("RuntimeError: 0\n")  # lifted while the command ran
    assert sys.get_int_max_str_digits() == limit


def test_sigma_commands():
    code, out = invoke("sigma", "check", "--family", "bs", "--sigma", "1;1024",
                       "--eps", "1", "--M", "512")
    assert code == EXIT_OK and json.loads(out)["admissible"] is True
    code, out = invoke("sigma", "obstruct", "--sigma",
                       ";".join(f"{i}:1" for i in range(8)),
                       "--eps", "2", "--M", "32", "--window", "8")
    data = json.loads(out)
    assert code == EXIT_VIOLATIONS and len(data["witness"]) == 2


def test_telescope():
    code, out = invoke("telescope", "--family", "bs", "--quad", "0;1;4;3",
                       "--sigma", "1;2")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["steps"] == 2
    assert data["corner_relations_exact"] and data["telescoping_identity"]
    # points print in normalized r*n^k form
    assert data["chain"] == [["0", "1", "1*2^1", "1"], ["1", "1*2^1", "1*2^2", "3"]]


def test_isometry_search_cli():
    code, out = invoke("isometry-search", "--radius", "2")
    data = json.loads(out)
    assert code == EXIT_OK and data["maps_found"] == 1 and data["all_identity"]


def test_isometry_search_cli_radius_8(capsys):
    # the 2016-vertex ball is deeper than the interpreter's recursion limit
    code, out = invoke("isometry-search", "--radius", "8")
    data = json.loads(out)
    assert code == EXIT_OK and data["maps_found"] == 1 and data["all_identity"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("isometry-search", "--radius", "4", "--no-fix-identity-coset", "--no-pattern-preserving"),
    ("isometry-search", "--n", "3", "--radius", "5"),
], ids=["free-r4", "n3-r5"])
def test_isometry_search_past_node_budget_exits_2(argv):
    # 3,757,316 nodes (65,536 maps, 10-14 s) and more than 6 M nodes (20 s)
    # without the budget; 2^20 nodes take about 3.5 s
    proc, seconds = _run_child(argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "MAX_SEARCH_NODES" in proc.stderr
    assert seconds < 10.0


@pytest.mark.parametrize("exc", [InternalError("bound escaped"), RuntimeError("boom")],
                         ids=lambda e: type(e).__name__)
def test_internal_errors_exit_3_in_one_line(exc, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_ball", fail)
    code, out = invoke("ball", "--radius", "1")
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL and EXIT_INTERNAL not in (EXIT_OK, EXIT_VIOLATIONS, EXIT_USAGE)
    assert out == "" and err.startswith("internal error") and str(exc) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_errors_exit_2():
    bad_invocations = [
        ("dist", "--u", "0:1", "--v", "|0"),                       # bad vertex literal
        ("delta", "--family", "bs", "--p", "1/3", "--q", "0"),     # not in Z[1/2]
        ("delta", "--family", "lamp", "--p", "0:9", "--q", ""),    # value out of range
        ("map", "apply", "--map", "warp:3", "--x", ""),            # unknown map
        ("map", "ppq", "--map", "shift:1", "--window", "0"),       # empty window
        ("map", "ppq", "--map", "shift:1", "--n=-3", "--window", "3"),  # modulus below 2
        ("verify", "taback", "--eps", "3", "--M", "9",
         "--bound", "8", "--kmin", "0", "--kmax", "1"),            # M <= eps^2
        ("quad", "classify", "--points", "0;1;2", "--eps", "1", "--M", "2"),
        ("quad", "classify", "--points", ";0:1;0:1,9:1;9:1",
         "--eps", "x", "--M", "4"),                                # bad scalar
        ("nonsense",),
        ("delta", "--family", "lamp", "--p", "0:1", "--q", "",
         "--format", "yaml"),                                      # bad choice
    ]
    for argv in bad_invocations:
        code, _ = invoke(*argv)
        assert code == EXIT_USAGE, argv


@pytest.mark.parametrize("argv, error", [
    (("isometry-search", "--radius", "2", "--max-results", "0"), "--max-results must be >= 1, got 0"),
    (("isometry-search", "--radius", "2", "--max-results", "-1"), "--max-results must be >= 1, got -1"),
    (("dist", "--radius", "2", "--u", "|0"), "dist --radius prints a table and takes no --u"),
    (("dist", "--radius", "2", "--check-bfs"), "dist --radius prints a table and takes no --check-bfs"),
    (("dist", "--radius", "2", "--u", "|0", "--v", "0:1|0"),
     "dist --radius prints a table and takes no --u, --v"),
    (("dist", "--u", "|0"), "dist needs both --u and --v"),
    (("dist", "--v", "|0", "--check-bfs"), "dist needs both --u and --v"),
    (("verify", "taback", "--eps", "3", "--M", "64", "--bound", "-5", "--kmin", "-2", "--kmax", "2"),
     "numerator bound must be >= 0, got -5"),
    (("delta", "--family", "sol", "--matrix", "2,1,1,1", "--p", "1,2", "--q", "0,0", "--n", "5"),
     "--family sol takes no --n; --matrix gives its group"),
    (("delta", "--family", "lamp", "--matrix", "2,1,1,1", "--p", "0:1", "--q", ""),
     "--family lamp takes no --matrix"),
    (("quad", "classify", "--family", "sol", "--matrix", "2,1,1,1", "--points", "0,0;1,0;1,1;0,1",
      "--eps", "1", "--M", "2", "--n", "2"), "--family sol takes no --n; --matrix gives its group"),
    (("telescope", "--family", "bs", "--matrix", "2,1,1,1", "--quad", "0;1;4;3", "--sigma", "1;2"),
     "--family bs takes no --matrix"),
    (("sigma", "check", "--family", "sol", "--matrix", "2,1,1,1", "--sigma", "1,0;0,1", "--eps", "1",
      "--M", "2", "--n", "3"), "--family sol takes no --n; --matrix gives its group"),
], ids=["max-results-0", "max-results-negative", "dist-radius-u", "dist-radius-check-bfs",
        "dist-radius-pair", "dist-u-alone", "dist-v-alone", "taback-negative-bound",
        "delta-sol-n", "delta-lamp-matrix", "classify-sol-n", "telescope-bs-matrix", "sigma-check-sol-n"])
def test_ignored_or_vacuous_inputs_exit_2(argv, error, capsys):
    # each exited 0, dropping an option or printing a vacuous report
    # (except the lone --u or --v, which was told to give --radius instead)
    code, out = invoke(*argv)
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err == f"error: {error}\n"


def test_delta_distortion_at_n_4_takes_k_from_the_block():
    # K came from the padding-m window [-2, 4), whose 4^6 configurations pass
    # MAX_SCAN_PAIRS, so every window of this map exited 2
    code, out = invoke("map", "delta-distortion", "--map", "blockperm:m=2:01>10,10>01", "--n", "4",
                       "--window", "2")
    assert code == EXIT_OK and json.loads(out)["K"] == "4"


def test_malformed_position_in_message(capsys):
    code = run(["delta", "--family", "lamp", "--p", "0:1,3:9", "--q", ""],
               stdout=io.StringIO())
    assert code == EXIT_USAGE
    assert "col 6" in capsys.readouterr().err


@given(st.text(alphabet="0123456789:,-|x", max_size=12))
@settings(max_examples=60, deadline=None)
def test_exit_code_contract_fuzz(text):
    code, _ = invoke("delta", "--family", "lamp", "--p", text, "--q", "")
    assert code in (EXIT_OK, EXIT_USAGE)


def test_byte_identical_reruns():
    argv = ("verify", "lamp-claim", "--S", "2", "--window", "10")
    assert invoke(*argv) == invoke(*argv)


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = invoke("verify", "lamp-claim", "--S", "1", "--window", "6",
                       "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["violations"] == []


def test_timing_flag_controls_elapsed_ms():
    _, out = invoke("verify", "lamp-claim", "--S", "1", "--window", "6")
    assert "elapsed_ms" not in json.loads(out)
    _, out = invoke("verify", "lamp-claim", "--S", "1", "--window", "6", "--timing")
    assert "elapsed_ms" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("verify", "taback", "--eps", "1", "--M", "2", "--bound", "8", "--kmin", "0", "--kmax", "1"),
    ("verify", "schwartz", "--matrix", "2,1,1,1", "--eps", "1", "--box", "10", "--calibrate"),
])
def test_timing_flag_on_every_verify_command(argv):
    _, out = invoke(*argv)
    assert "elapsed_ms" not in json.loads(out)
    _, out = invoke(*argv, "--timing")
    assert "elapsed_ms" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("ball", "--radius", "1", "--timing"),
    ("export-dot", "--radius", "1", "--timing"),
    ("verify", "schwartz", "--matrix", "2,1,1,1", "--eps", "1", "--box", "10",
     "--calibrate", "--n", "3"),
], ids=" ".join)
def test_options_a_command_never_reads_are_usage_errors(argv, capsys):
    # --timing exists only where a report carries elapsed_ms, and the SOL
    # verifier has no modulus
    code, out = invoke(*argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage: lampgeo") and "Traceback" not in err


def test_csv_only_where_reports_have_rows(monkeypatch, capsys):
    # a report with no rows has no csv form; argparse refuses it before the
    # verifier runs
    def fail(*args, **kwargs):
        raise AssertionError("verifier called")

    monkeypatch.setattr(cli, "verify_lamp_claim", fail)
    code, out = invoke("verify", "lamp-claim", "--S", "2", "--window", "10",
                       "--format", "csv")
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage: lampgeo") and "Traceback" not in err
    code, out = invoke("ball", "--radius", "1", "--format", "csv")
    assert code == EXIT_OK and out.splitlines()[0] == "vertex" and len(out.splitlines()) == 6
    code, out = invoke("dist", "--u", "|0", "--v", "0:1|0", "--format", "csv")
    assert code == EXIT_USAGE and out == ""


# one valid invocation of every leaf command that takes --n, less the --n;
# the families that read --n as a base get a row of their own
N_ROWS = {
    ("delta",): [["--p", "0:1", "--q", ""], ["--family", "bs", "--p", "12", "--q", "0"]],
    ("dist",): [["--u", "|0", "--v", "0:1|0"], ["--radius", "1"]],
    ("ball",): [["--radius", "1"]],
    ("export-dot",): [["--radius", "1"]],
    ("quad", "classify"): [["--points", ";0:1;0:1,1:1;1:1", "--eps", "1", "--M", "2"],
                           ["--family", "bs", "--points", "0;1;3;2", "--eps", "1", "--M", "2"]],
    ("verify", "lamp-claim"): [["--S", "1", "--window", "3"]],
    ("verify", "taback"): [["--eps", "1", "--M", "2", "--bound", "3", "--kmin", "0", "--kmax", "1"]],
    ("telescope",): [["--quad", ";0:1;0:1,1:1;1:1", "--sigma", "0:1;1:1"],
                     ["--family", "bs", "--quad", "0;1;4;3", "--sigma", "1;2"]],
    ("sigma", "check"): [["--sigma", "0:1;1:1", "--eps", "1", "--M", "2"],
                         ["--family", "bs", "--sigma", "1;2", "--eps", "1", "--M", "2"]],
    ("sigma", "obstruct"): [["--sigma", "0:1;1:1", "--eps", "1", "--M", "32", "--window", "2"]],
    ("map", "apply"): [["--map", "shift:1", "--x", "0:1"]],
    ("map", "bilip"): [["--map", "blockperm:m=1:1>0,0>1"]],
    ("map", "ppq"): [["--map", "shift:1", "--window", "3"]],
    ("map", "delta-distortion"): [["--map", "blockperm:m=1:1>0,0>1", "--window", "2"]],
    ("map", "qi-distortion"): [["--map", "shift:1", "--radius", "2"]],
    ("isometry-search",): [["--radius", "2"]],
}


def _leaf_commands(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, path + (name,))


def test_every_command_with_n_has_a_sweep_row():
    taking_n = [path for path, p in _leaf_commands(cli.build_parser())
                if any("--n" in a.option_strings for a in p._actions)]
    assert sorted(taking_n) == sorted(N_ROWS)


def test_n_sweep_rows_run_at_n_2(capsys):
    for path, tails in N_ROWS.items():
        for tail in tails:
            assert invoke(*path, *tail)[0] in (EXIT_OK, EXIT_VIOLATIONS), (path, tail)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "1", "-3"])
def test_n_below_2_exits_2_naming_the_modulus_or_base(n, capsys):
    # each command names the modulus or the base, before a scan, a budget or
    # a literal can fail on it in some other way
    named = re.compile(r"error: .*((modulus|base|n) must be >= 2|\(2 <= n <= 10\))")
    start = time.perf_counter()
    for path, tails in N_ROWS.items():
        for tail in tails:
            argv = [*path, *tail, f"--n={n}"]
            code, out = invoke(*argv)
            err = capsys.readouterr().err
            assert code == EXIT_USAGE and out == "", argv
            assert err.count("\n") == 1 and named.match(err) and "Traceback" not in err, (argv, err)
    assert time.perf_counter() - start < 1.0


# one valid invocation of every leaf command that reads a literal, with "{}"
# in the place of one literal; between them the rows cover every literal option
LITERAL_ROWS = {
    ("delta",): ["--family", "bs", "--p", "{}", "--q", "0"],
    ("dist",): ["--u", "|{}", "--v", "|0"],
    ("ball",): ["--radius", "1", "--center", "{}:1|0"],
    ("export-dot",): ["--radius", "1", "--center", "|{}"],
    ("quad", "classify"): ["--family", "bs", "--points", "0;1;{};2", "--eps", "1", "--M", "2"],
    ("verify", "schwartz"): ["--matrix", "{},1,2,1", "--eps", "1", "--box", "1", "--calibrate"],
    ("telescope",): ["--family", "bs", "--quad", "0;1;4;{}", "--sigma", "1;2"],
    ("sigma", "check"): ["--family", "sol", "--matrix", "2,1,1,1", "--sigma", "{},0;0,1", "--eps", "1", "--M", "2"],
    ("sigma", "obstruct"): ["--sigma", "0:1;1:1", "--eps", "{}", "--M", "32", "--window", "2"],
    ("map", "apply"): ["--map", "shift:1", "--x", "0:1,{}:1"],
    ("map", "bilip"): ["--map", "blockperm:m={}"],
    ("map", "ppq"): ["--map", "shift:1", "--window", "{}"],
    ("map", "delta-distortion"): ["--map", "blockperm:m=1:1>0,0>1", "--window", "0:{}"],
    ("map", "qi-distortion"): ["--map", "shift:{}", "--radius", "2"],
}


def _literal_options(parser):
    # the options that take a string and read it as a literal: all but --out
    return [a.dest for a in parser._actions if type(a) is argparse._StoreAction
            and a.type is None and a.choices is None and a.dest != "out"]


def test_every_command_reading_a_literal_has_a_sweep_row():
    reading = [path for path, p in _leaf_commands(cli.build_parser()) if _literal_options(p)]
    assert sorted(reading) == sorted(LITERAL_ROWS)
    options = {dest for path, p in _leaf_commands(cli.build_parser()) for dest in _literal_options(p)}
    placed = {tail[i - 1].lstrip("-") for tail in LITERAL_ROWS.values()
              for i, arg in enumerate(tail) if "{}" in arg}
    assert placed | {"q", "v", "M"} == options  # each of --q, --v and --M is read as its partner is


def test_literal_sweep_rows_run_at_3(capsys):
    for path, tail in LITERAL_ROWS.items():
        assert invoke(*path, *(arg.format(3) for arg in tail))[0] in (EXIT_OK, EXIT_VIOLATIONS), path
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1" * 5001, "1e100000000"], ids=["5001-digit-integer", "1e100000000"])
def test_literal_past_4300_digits_exits_2_in_every_command(literal, capsys):
    # every literal goes through one reader, which refuses it before an int
    # past the digit rule is built, though run lifts the int-to-string limit
    start = time.perf_counter()
    for path, tail in LITERAL_ROWS.items():
        code, out = invoke(*path, *(arg.format(literal) for arg in tail))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == "", path
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, (path, err)
    assert time.perf_counter() - start < 1.0
