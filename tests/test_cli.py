"""End-to-end checks of the command line entry point, run in process."""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

import pytest

import unimap.experiments
from unimap.cli import _CLAIMS, main
from unimap.core import core
from unimap.maps import (
    Multigraph,
    decode_map,
    encode_map,
    from_polygon_gluing,
    genus,
)
from unimap.series import series_C, series_D, series_T

from .oracles import (
    call_with_recursion_bound,
    catalan,
    harer_zagier_table,
    path_torus,
    write_multigraph,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cycle_graph(k: int) -> Multigraph:
    return Multigraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def test_sample_unicellular_deterministic(capsys):
    args = ("sample-unicellular", "--n", "12", "--genus", "3", "--seed", "7", "--count", "3")
    code, out_a, _ = run(capsys, *args)
    assert code == 0
    code, out_b, _ = run(capsys, *args)
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        m = decode_map(line)
        assert m.n_edges == 12
        assert m.n_faces() == 1
        assert genus(m) == 3


def test_sample_unicellular_high_genus_is_fast(capsys):
    # rejection needed 3.8e7 gluings on average here and spun for hours
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "sample-unicellular", "--n", "100", "--genus", "40", "--seed", "1")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    m = decode_map(out)
    assert (m.n_edges, m.n_faces(), genus(m)) == (100, 1, 40)


def test_sample_cm_respects_degrees(capsys):
    code, out, _ = run(capsys, "sample-cm", "--degrees", "3,3,4,4", "--seed", "1")
    assert code == 0
    m = decode_map(out.strip())
    from unimap.maps import vertex_degrees

    assert vertex_degrees(m) == (3, 3, 4, 4)


def test_enumerate_genus_histogram(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--classify", "genus")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,count,total"
    rows = {int(k): int(c) for k, c, _t in (ln.split(",") for ln in lines[1:])}
    assert rows == {0: 14, 1: 70, 2: 21}
    assert all(ln.endswith(",105") for ln in lines[1:])


def test_enumerate_faces_histogram(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--classify", "faces")
    assert code == 0
    rows = dict(
        (int(k), int(c))
        for k, c, _t in (ln.split(",") for ln in out.strip().splitlines()[1:])
    )
    # gluings of the hexagon all have one face by construction
    assert rows == {1: 15}


@pytest.mark.parametrize("mode", ["genus", "vertices", "faces"])
def test_enumerate_every_mode_matches_harer_zagier(capsys, mode):
    table = harer_zagier_table(6)
    for n in range(1, 7):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--classify", mode)
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        by_genus = {g: table[(n, g)] for g in range(n // 2 + 1)}
        gluings = math.prod(range(1, 2 * n, 2))
        expected = {
            "genus": by_genus,
            "vertices": {n + 1 - 2 * g: count for g, count in by_genus.items()},
            "faces": {1: gluings},
        }[mode]
        assert {int(k): int(c) for k, c, _t in rows} == expected
        assert all(int(t) == gluings for _k, _c, t in rows)


def test_core_subcommand_files(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    core_path = tmp_path / "core.json"
    branches_path = tmp_path / "branches.json"
    code, out, _ = run(capsys, "sample-unicellular", "--n", "14", "--genus", "4", "--seed", "3")
    assert code == 0
    map_path.write_text(out)

    code, _, _ = run(
        capsys,
        "core",
        "--in", str(map_path),
        "--out", str(core_path),
        "--branches", str(branches_path),
    )
    assert code == 0
    m = decode_map(out.strip())
    dec = core(m)
    assert decode_map(core_path.read_text().strip()) == dec.core

    branches = json.loads(branches_path.read_text())
    assert len(branches) == len(dec.branches)
    assert sum(b["size"] for b in branches) == sum(
        drt.n_edges for drt in dec.branches
    )
    marked = [b for b in branches if "marked_edge" in b]
    assert len(marked) == 1
    for b in branches:
        assert set(b["tree"]) == {"contour", "path"}
        assert len(b["attachment"]) == 2


def test_core_branches_json_writes_trees_as_contours(tmp_path, capsys):
    # torus square with a three-edge tree in the corner before dart 6
    m = from_polygon_gluing(((0, 5), (1, 2), (3, 4), (6, 8), (7, 9)), 5)
    map_path = tmp_path / "map.json"
    map_path.write_text(encode_map(m) + "\n")
    branches_path = tmp_path / "branches.json"
    code, _, _ = run(
        capsys,
        "core",
        "--in", str(map_path),
        "--out", str(tmp_path / "core.json"),
        "--branches", str(branches_path),
    )
    assert code == 0
    # the first tree is ((), ((), ())): root children a leaf and a cherry
    expected = [
        {
            "size": 4,
            "tree": {"contour": "()(()())", "path": [0]},
            "attachment": [0, 2],
            "marked_edge": [1],
        },
        {"size": 1, "tree": {"contour": "()", "path": [0]}, "attachment": [1, 3]},
    ]
    assert branches_path.read_text() == json.dumps(expected, indent=2) + "\n"


def test_core_subcommand_on_a_deep_branch(tmp_path):
    m = path_torus(1501)
    map_path = tmp_path / "map.json"
    map_path.write_text(encode_map(m) + "\n")
    branches_path = tmp_path / "branches.json"
    argv = [
        "core",
        "--in", str(map_path),
        "--out", str(tmp_path / "core.json"),
        "--branches", str(branches_path),
    ]
    assert call_with_recursion_bound(main, argv) == 0
    dec = core(m)
    branches = json.loads(branches_path.read_text())
    assert [b["size"] for b in branches] == [1502, 1]
    for b, drt in zip(branches, dec.branches):
        assert tuple(1 if c == "(" else -1 for c in b["tree"]["contour"]) == drt.word


def test_core_subcommand_with_cutoff(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    code, out, _ = run(capsys, "sample-unicellular", "--n", "14", "--genus", "4", "--seed", "3")
    map_path.write_text(out)
    trimmed_path = tmp_path / "trimmed.json"
    code, _, _ = run(
        capsys,
        "core",
        "--in", str(map_path),
        "--M", "3",
        "--out", str(trimmed_path),
        "--branches", str(tmp_path / "b.json"),
    )
    assert code == 0
    m = decode_map(out.strip())
    trimmed = decode_map(trimmed_path.read_text().strip())
    assert core(m).core.n_edges <= trimmed.n_edges <= m.n_edges


def test_core_subcommand_trim_is_pinned(tmp_path, capsys):
    # the root lies on a 3-edge branch that --M 3 collapses, and that
    # branch is presented from the end away from the root's segment
    pairs = (
        (0, 1), (2, 5), (3, 12), (4, 8), (6, 21), (7, 13),
        (9, 16), (10, 11), (14, 18), (15, 17), (19, 20),
    )
    map_path = tmp_path / "map.json"
    map_path.write_text(encode_map(from_polygon_gluing(pairs, 11)) + "\n")
    out_path, branches_path = tmp_path / "trimmed.json", tmp_path / "b.json"
    code, out, _ = run(
        capsys,
        "core",
        "--in", str(map_path),
        "--M", "3",
        "--out", str(out_path),
        "--branches", str(branches_path),
    )
    assert code == 0

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert sha(out_path.read_bytes()) == "a2ca3a4b7204f0efeb7f13a7f07d4e3ae82b7369f98a8bbafe136619e5fcb511"
    assert sha(branches_path.read_bytes()) == "bf2ec79da9c029da6f34234ee95ed9948e913ca49276eb6cacc8ffd7d25222e2"
    assert sha(out.encode()) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # empty


@pytest.mark.parametrize(
    "pairs,M,message",
    [
        (((0, 2), (1, 3)), "1", "M must be an int >= 2, got 1"),
        (((0, 1), (2, 3)), "1", "genus-zero map has an empty core"),
        (((0, 1), (2, 3)), "3", "genus-zero map has an empty core"),
    ],
    ids=["square-M-1", "plane-tree-M-1", "plane-tree-M-3"],
)
def test_core_subcommand_bad_trim_exits_2(tmp_path, capsys, pairs, M, message):
    map_path = tmp_path / "map.json"
    map_path.write_text(encode_map(from_polygon_gluing(pairs, 2)) + "\n")
    out_path = tmp_path / "c.json"
    code, out, err = run(
        capsys,
        "core",
        "--in", str(map_path),
        "--M", M,
        "--out", str(out_path),
        "--branches", str(tmp_path / "b.json"),
    )
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error:") and message in err


def test_cheeger_exact_witness(tmp_path, capsys):
    graph_path = tmp_path / "c4.mg"
    graph_path.write_text(write_multigraph(cycle_graph(4)))
    out_path = tmp_path / "witness.json"
    code, _, _ = run(capsys, "cheeger", "--in", str(graph_path), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["h"] == "1/2"
    assert payload["boundary"] == 2
    assert sorted(payload["vol"]) == [4, 4]


def test_cheeger_disconnected_witness(tmp_path, capsys):
    # nothing crosses between the components: h = 0, and vertex 0's
    # component is the witness
    graph_path = tmp_path / "two.mg"
    graph_path.write_text("p mg 4 2\n0 1\n2 3\n")
    out_path = tmp_path / "witness.json"
    code, _, _ = run(capsys, "cheeger", "--in", str(graph_path), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["h"] == "0/1"
    assert payload["boundary"] == 0
    assert payload["subset"] == [0, 1]
    assert payload["vol"] == [2, 2]


def test_cheeger_kappa_modes(tmp_path, capsys):
    graph_path = tmp_path / "c6.mg"
    graph_path.write_text(write_multigraph(cycle_graph(6)))

    ok_path = tmp_path / "ok.json"
    code, _, _ = run(
        capsys, "cheeger", "--in", str(graph_path), "--kappa", "1/3", "--out", str(ok_path)
    )
    assert code == 0
    ok = json.loads(ok_path.read_text())
    assert ok["kappa"] == "1/3"
    assert ok["is_expander"] is True
    assert "subset" not in ok

    bad_path = tmp_path / "bad.json"
    code, _, _ = run(
        capsys, "cheeger", "--in", str(graph_path), "--kappa", "1/2", "--out", str(bad_path)
    )
    assert code == 0
    bad = json.loads(bad_path.read_text())
    assert bad["kappa"] == "1/2"
    assert bad["is_expander"] is False
    assert bad["h"] == "1/3"
    assert len(bad["subset"]) == 3


def test_cheeger_spectral(tmp_path, capsys):
    graph_path = tmp_path / "c8.mg"
    graph_path.write_text(write_multigraph(cycle_graph(8)))
    out_path = tmp_path / "s.json"
    code, _, _ = run(
        capsys, "cheeger", "--in", str(graph_path), "--spectral", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["spectral_lower"] <= 0.25 <= payload["spectral_upper"]


def test_constants_subcommand(tmp_path, capsys):
    out_path = tmp_path / "pipeline.json"
    code, _, _ = run(
        capsys, "constants", "--theta", "0.4", "--epsilon", "0.1", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["M"] == 102
    assert payload["beta_star"] == pytest.approx(0.17208712152522088)
    assert "notes" in payload and "kappa" in payload["notes"]


def test_series_csv_and_json(capsys):
    code, out, _ = run(capsys, "series", "--which", "D", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["k,coefficient", "0,0", "1,1", "2,3", "3,10", "4,35"]

    code, out, _ = run(capsys, "series", "--which", "C", "--order", "3", "--format", "json")
    payload = json.loads(out)
    assert payload == {"which": "C", "coefficients": ["0", "1", "6", "30"]}


def test_series_small_orders_print_every_coefficient(capsys):
    # the digit-limit check refuses none of orders 0..300
    exact = {
        "T": catalan,
        "D": lambda k: math.comb(2 * k - 1, k - 1),
        "C": lambda k: k * math.comb(2 * k - 1, k - 1),
    }
    for which, coefficient in exact.items():
        lines = ["k,coefficient", "0,0"] + [f"{k},{coefficient(k)}" for k in range(1, 301)]
        for order in range(301):
            code, out, _ = run(capsys, "series", "--which", which, "--order", str(order))
            assert code == 0
            assert out == "\n".join(lines[: order + 2]) + "\n"


@pytest.mark.parametrize("which", ["T", "D", "C"])
def test_series_past_digit_limit_fails_fast(capsys, which):
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "--which", which, "--order", "1000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: --order 1000000 gives coefficients past")


@pytest.mark.parametrize("limit", [640, 1000])
def test_series_digit_limit_boundary(capsys, limit):
    # the last printable order prints, the next one is refused
    makers = {"T": series_T, "D": series_D, "C": series_C}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for which, maker in makers.items():
            coeffs = maker(2 * limit).coeffs
            first = next(k for k, c in enumerate(coeffs) if c >= 10**limit)
            code, out, _ = run(capsys, "series", "--which", which, "--order", str(first - 1))
            assert code == 0
            assert out.splitlines()[-1] == f"{first - 1},{coeffs[first - 1]}"
            code, out, err = run(capsys, "series", "--which", which, "--order", str(first))
            assert (code, out) == (2, "")
            assert f"limit of {limit} digits" in err
    finally:
        sys.set_int_max_str_digits(saved)


def test_verify_prints_payload(capsys):
    code, out, err = run(
        capsys, "verify", "--claim", "decomposition-identity", "--n", "4", "--genus", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert "decomposition-identity: pass" in err


# small arguments for each claim of `unimap verify`: a claim added to the
# table without an entry here fails the test below
SMALL_CLAIM_ARGS = {
    "one-vertex-law": ("--p", "2"),
    "cm-unicellular": ("--degrees", "3,3"),
    "decomposition-identity": ("--n", "4", "--genus", "1"),
    "branch-profile": ("--n", "4", "--genus", "1"),
    "substitution-transfer": ("--instances", "3", "--seed", "1"),
}


@pytest.mark.parametrize("claim", _CLAIMS)
def test_every_claim_runs_from_the_command_line(capsys, claim):
    code, out, err = run(capsys, "verify", "--claim", claim, *SMALL_CLAIM_ARGS[claim])
    payload = json.loads(out)
    assert (code, payload["claim"]) == (0, claim)
    assert err == f"{claim}: {payload['verdict']}\n"


def test_a_failed_claim_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(unimap.experiments, "_cm_map_is_unicellular", lambda *args: False)
    code, out, err = run(
        capsys, "verify", "--claim", "cm-unicellular",
        "--degrees", "3,3,3,3,3,3", "--trials", "1000", "--seed", "1",
    )
    assert (code, err) == (1, "cm-unicellular: fail\n")
    assert json.loads(out)["verdict"] == "fail"


def test_verify_persists_report(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--claim", "one-vertex-law",
        "--p", "2", "4",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert out == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["claim"] == "one-vertex-law"
    assert (tmp_path / "manifest.json").exists()


def test_a_report_without_rows_leaves_no_stale_data_csv(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "experiment", "core-expander",
        "--theta", "0.4",
        "--epsilon", "0.1",
        "--n", "10",
        "--trials", "2",
        "--seed", "1",
        "--out", str(tmp_path),
    )
    assert code == 0 and (tmp_path / "data.csv").exists()
    code, _, _ = run(
        capsys, "verify", "--claim", "one-vertex-law", "--p", "2", "--out", str(tmp_path)
    )
    assert code == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["claim"] == "one-vertex-law"
    assert not (tmp_path / "data.csv").exists()


def test_experiment_core_expander(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "experiment", "core-expander",
        "--theta", "0.4",
        "--epsilon", "0.1",
        "--n", "16",
        "--trials", "2",
        "--seed", "11",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "core-expander: informational" in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["observed"]["n=16"]["transfer_violations"] == 0
    assert (tmp_path / "data.csv").read_text().startswith("experiment,n,quantity,value")


def test_library_errors_exit_2(capsys):
    code, _, err = run(capsys, "sample-unicellular", "--n", "4", "--genus", "3", "--seed", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n",  # missing header
        "p mg 2 one\n0 1\n",  # non-integer header field
        "p mg 2 1\n0 x\n",  # non-integer endpoint
        "p mg 2\n0 1\n",  # header field count
        "p mg 2 1\n0 1 1\n",  # edge field count
        "p mg 2 3\n0 1\n",  # edge count mismatch
        "p mg 2 1\n0 5\n",  # endpoint out of range
    ],
)
def test_malformed_graph_exits_2(tmp_path, capsys, text):
    graph_path = tmp_path / "bad.mg"
    graph_path.write_text(text)
    code, _, err = run(
        capsys, "cheeger", "--in", str(graph_path), "--out", str(tmp_path / "w.json")
    )
    assert code == 2
    assert err.startswith("error:")


# the one-vertex torus with two edges, which decomposes when its fields are
# read as ints, with one field written as a JSON value that is not an integer
BAD_MAPS = {
    "alpha-float": '{"n_darts": 4, "alpha": [2.7, 3, 0, 1], "sigma": [3, 0, 1, 2], "root": 0}\n',
    "alpha-string": '{"n_darts": 4, "alpha": ["2", 3, 0, 1], "sigma": [3, 0, 1, 2], "root": 0}\n',
    "alpha-bool": '{"n_darts": 4, "alpha": [2, 3, 0, true], "sigma": [3, 0, 1, 2], "root": 0}\n',
    "n-darts-float": '{"n_darts": 4.5, "alpha": [2, 3, 0, 1], "sigma": [3, 0, 1, 2], "root": 0}\n',
    "root-float": '{"n_darts": 4, "alpha": [2, 3, 0, 1], "sigma": [3, 0, 1, 2], "root": 0.9}\n',
}


@pytest.mark.parametrize(
    "argv,names",
    [
        (("core", "--in", "{map}", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/missing.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/bad-alpha-float.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/bad-alpha-string.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/bad-alpha-bool.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/bad-n-darts-float.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("core", "--in", "{tmp}/bad-root-float.json", "--out", "{tmp}/c.json", "--branches", "{tmp}/b.json"), ""),
        (("cheeger", "--in", "{graph}", "--kappa", "abc", "--out", "{tmp}/w.json"), ""),
        (("cheeger", "--in", "{graph}", "--kappa", "1/0", "--out", "{tmp}/w.json"), ""),
        (("cheeger", "--in", "{graph}", "--spectral", "--kappa", "1/2", "--out", "{tmp}/w.json"), ""),
        (("cheeger", "--in", "{tmp}/missing.mg", "--out", "{tmp}/w.json"), ""),
        (("sample-cm", "--degrees", "3,3,x", "--seed", "1"), ""),
        (("verify", "--claim", "cm-unicellular", "--degrees", "3,x"), ""),
        (("verify", "--claim", "one-vertex-law", "--p"), ""),
        (("verify", "--claim", "one-vertex-law", "--p", "2", "2"), ""),
        (("verify", "--claim", "substitution-transfer", "--instances", "0"), "instances"),
        (("verify", "--claim", "decomposition-identity", "--n", "4", "--genus", "3"), "g=3"),
        (("experiment", "core-expander", "--theta", "0.4", "--epsilon", "0.1", "--n", "20,20",
          "--trials", "2", "--seed", "3", "--out", "{tmp}/ce"), ""),
        (("experiment", "core-expander", "--theta", "0.4", "--epsilon", "0.1", "--n", "20,1",
          "--trials", "2", "--seed", "3", "--out", "{tmp}/ce"), "n=1"),
        (("series", "--which", "T", "--order", "-3"), ""),
        (("series", "--which", "D", "--order", "-3"), ""),
        (("series", "--which", "C", "--order", "-3"), ""),
        (("series", "--which", "T", "--order", "7200", "--format", "json"), "--order 7200"),
        (("enumerate", "--n", "0"), "--n"),
        (("sample-unicellular", "--n", "4", "--genus", "1", "--seed", "1", "--count", "0"), "--count"),
        (("sample-unicellular", "--n", "4", "--genus", "1", "--seed", "1", "--count", "-3"), "--count"),
        (("sample-unicellular", "--n", "4", "--genus", "1", "--seed", "1", "--count", "x"), "--count"),
        (("sample-cm", "--degrees", "3,3", "--seed", "1", "--count", "0"), "--count"),
        (("sample-cm", "--degrees", "3,3", "--seed", "1", "--count", "-3"), "--count"),
    ],
    ids=[
        "map-field-not-int",
        "missing-map",
        "map-alpha-float",
        "map-alpha-string",
        "map-alpha-bool",
        "map-n-darts-float",
        "map-root-float",
        "kappa-not-a-number",
        "kappa-zero-denominator",
        "kappa-with-spectral",
        "missing-graph",
        "sample-cm-degrees",
        "verify-degrees",
        "empty-p-list",
        "repeated-p",
        "transfer-instances-zero",
        "verify-genus-past-half-n",
        "core-expander-repeated-n",
        "core-expander-infeasible-n",
        "negative-order-T",
        "negative-order-D",
        "negative-order-C",
        "series-past-int-str-limit",
        "enumerate-n-zero",
        "sample-unicellular-count-zero",
        "sample-unicellular-count-negative",
        "sample-unicellular-count-not-an-int",
        "sample-cm-count-zero",
        "sample-cm-count-negative",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, argv, names):
    map_path = tmp_path / "bad.json"
    map_path.write_text('{"n_darts": "x", "alpha": [1, 0], "sigma": [0, 1], "root": 0}\n')
    for name, text in BAD_MAPS.items():
        (tmp_path / f"bad-{name}.json").write_text(text)
    graph_path = tmp_path / "c4.mg"
    graph_path.write_text(write_multigraph(cycle_graph(4)))
    argv = [a.format(map=map_path, graph=graph_path, tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(("error:", "usage:"))
    assert names in err  # the message names the option the user gave


def test_verify_cm_needs_degrees(capsys):
    code, _, err = run(capsys, "verify", "--claim", "cm-unicellular")
    assert code == 2
    assert "degrees" in err
