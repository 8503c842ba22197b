import io
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fodef.cli import main, perturb_hop, perturb_tree, _addable_chords, _parse_sizes
from fodef.families import random_bounded_tree, random_hop
from fodef.graphs import ColoredGraph, GraphError
from fodef.separators import classify_o


def reference_candidates(g: ColoredGraph):
    """perturb_hop's former candidate scan, O(n^2 * chords), kept as the
    reference: the chords and the pairs (i, j) that are no edge and cross
    no chord, in (i, j) order."""
    n = g.n
    cyc = {(i, (i + 1) % n) for i in range(n)}
    cyc |= {(b, a) for a, b in cyc}
    chords = [e for e in g.edges() if e not in cyc]
    candidates = []
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) in cyc or g.has_edge(i, j):
                continue
            if all(not (i < a < j < b or a < i < b < j) for a, b in chords):
                candidates.append((i, j))
    return chords, candidates


def reference_perturb_hop(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """perturb_hop as it was before the face walk."""
    n = g.n
    chords, candidates = reference_candidates(g)
    if chords and (not candidates or rng.random() < 0.5):
        drop = rng.choice(chords)
        return ColoredGraph.build(n, [e for e in g.edges() if e != drop])
    if candidates:
        return g.with_edges_added([rng.choice(candidates)])
    return random_hop(n, rng.randrange(1 << 30))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_gen_and_rank(self, tmp_path, capsys):
        a = tmp_path / "s3.json"
        b = tmp_path / "s4.json"
        assert main(["gen", "--family", "star", "--n", "3", "--out", str(a)]) == 0
        assert main(["gen", "--family", "star", "--n", "4", "--out", str(b)]) == 0
        code, out, _ = run(capsys, "rank", "--g", str(a), "--h", str(b))
        assert code == 0
        row = json.loads(out.splitlines()[-1])
        assert row["rank"] == 3

    def test_rank_rejects_negative_alternation_budget(self, tmp_path, capsys):
        a = tmp_path / "s3.json"
        b = tmp_path / "s4.json"
        run(capsys, "gen", "--family", "star", "--n", "3", "--out", str(a))
        run(capsys, "gen", "--family", "star", "--n", "4", "--out", str(b))
        code, out, err = run(capsys, "rank", "--g", str(a), "--h", str(b), "--k", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: alternation budget must be non-negative\n"

    def test_separate_class_o(self, tmp_path, capsys):
        p = tmp_path / "c9.json"
        main(["gen", "--family", "cycle", "--n", "9", "--out", str(p)])
        # an EDHOP2 graph: a HOP graph less two of its cycle edges
        q = tmp_path / "edhop2.json"
        hop = random_hop(60, 3)
        q.write_text(ColoredGraph.build(60, [
            e for e in hop.edges() if e not in ((0, 59), (30, 31))]).to_json())
        for f in (p, q):
            code, out, _ = run(capsys, "separate", "--in", str(f), "--method", "class-o")
            assert code == 0
            res = json.loads(out.splitlines()[-1])
            assert len(res["X"]) <= 5
            assert len(res["flaps"]) <= 7
            assert res["verified"]

    def test_classify(self, tmp_path, capsys):
        for n in (4, 3000):
            p = tmp_path / f"p{n}.json"
            main(["gen", "--family", "path", "--n", str(n), "--out", str(p)])
            code, out, _ = run(capsys, "classify", "--in", str(p))
            assert code == 0
            res = json.loads(out.splitlines()[-1])
            assert res["tag"] == "EDHOP1"
            assert res["missing_edges"] == [[0, n - 1]]

    def test_play_transcript_replays(self, tmp_path, capsys):
        a = tmp_path / "c3.json"
        b = tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "3", "--out", str(a)])
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(b)])
        code, out, _ = run(capsys, "play", "--g", str(a), "--h", str(b),
                           "--rounds", "4", "--duplicator", "greedy")
        assert code == 0
        payload = json.loads(next(ln for ln in out.splitlines()
                                  if ln.startswith("{")))
        assert payload["status"] == "spoiler_won"
        from fodef.game import Transcript, step, new_game
        from fodef.graphs import load_graph
        g, h = load_graph(str(a)), load_graph(str(b))
        st = new_game(g, h, 4)
        for mv in payload["moves"]:
            st = step(st, (mv["side"], mv["spoiler"]), mv["duplicator"])
        assert st.status == payload["status"]

    def test_play_exhaustive_duplicator_takes_budget(self, tmp_path, capsys):
        a = tmp_path / "c9.json"
        b = tmp_path / "c10.json"
        main(["gen", "--family", "cycle", "--n", "9", "--out", str(a)])
        main(["gen", "--family", "cycle", "--n", "10", "--out", str(b)])
        argv = ["play", "--g", str(a), "--h", str(b), "--rounds", "4",
                "--duplicator", "exhaustive"]
        strategy = ("--spoiler", "s", "--provider", "class_o")
        for spoiler in ((), strategy):
            code, out, _ = run(capsys, *argv, *spoiler, "--budget", "20")
            assert code == 0
            assert out.splitlines()[-1].startswith("status: ")
        # cycle(9) against cycle(10) is over the default 16 and over 18
        for budget in ((), ("--budget", "18")):
            code, out, err = run(capsys, *argv, *strategy, *budget)
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1
            assert "exhaustive duplicator refuses instances over" in err

    def test_verify_eq4(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "eq4", "--n", "2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,seed,rounds,alternations,bound,pass"
        assert all(ln.endswith("true") for ln in lines[1:])

    def test_verify_triv(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "triv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,seed,rounds,alternations,bound,pass"
        assert [ln.split(",")[3] for ln in lines[1:]] == ["2", "3"]
        assert all(ln.endswith("true") for ln in lines[1:])

    def test_verify_campaign_small(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", "--claim", "thm41", "--family", "tree",
                         "--d", "3", "--n", "16..32", "--trials", "2",
                         "--seed", "11", "--duplicators", "greedy",
                         "--out", str(out_path))
        assert code == 0
        body = out_path.read_text().strip().splitlines()
        assert body[0] == "family,n,seed,rounds,alternations,bound,pass"
        assert len(body) == 1 + 2 * 2
        assert all(ln.endswith("true") for ln in body[1:])

    def test_verify_hop_escape_after_closing_move(self, capsys):
        # the greedy reply to an S0 closing move leaves the flap pair, and
        # the escape bisection wins (trial seed 775792918)
        code, out, err = run(capsys, "verify", "--claim", "thm43", "--n", "64",
                             "--trials", "1", "--seed", "775792854",
                             "--duplicators", "greedy")
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("hop-greedy,64,775792918,")
        assert rows[1].endswith(",true")

    def test_verify_campaign_requires_seed(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "thm41",
                           "--family", "tree", "--n", "16")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("claim,family", [("thm41", "hop"), ("thm43", "tree")])
    def test_verify_claim_on_the_wrong_family(self, capsys, claim, family):
        code, out, err = run(capsys, "verify", "--claim", claim, "--family",
                             family, "--n", "16", "--seed", "1", "--trials", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: claim {claim} is not checked on the family '{family}'\n"

    def test_verify_closed_form_missing_parameter(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "lemma37",
                             "--params", "n=100")
        assert code == 1
        assert out == ""
        assert err == "error: claim lemma37 needs the parameter m\n"

    @pytest.mark.parametrize("claim,params,name", [
        ("thm55_planar", ["n=0", "Delta=3"], "n"),
        ("thm55_all", ["n=100", "H=5", "Delta=4", "Deltaa=9"], "Deltaa"),
        ("lemma37", ["n=100", "m=3", "epsilon=1", "k=1"], "epsilon"),
        ("lemma53", ["n=100", "s=4", "epsilon=1", "c=2", "delta=0.5"], "epsilon"),
        ("lemma53", ["n=100", "s=4", "epsilon=0.5", "c=2", "delta=0"], "delta"),
        ("thm55_genus", ["n=100", "Delta=3", "g=-1", "c=1"], "g"),
    ])
    def test_verify_closed_form_bad_parameter(self, capsys, claim, params, name):
        code, out, err = run(capsys, "verify", "--claim", claim, "--params", *params)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: claim {claim} ") and err.count("\n") == 1
        assert f" {name}" in err

    @pytest.mark.parametrize("entry", ["n", "n=abc", "=3", "n=inf"])
    def test_verify_malformed_params_entry(self, capsys, entry):
        code, out, err = run(capsys, "verify", "--claim", "lemma37",
                             "--params", entry)
        assert code == 1
        assert out == ""
        assert err == (f"error: --params entry {entry!r} is not KEY=VALUE "
                       "with a finite number VALUE\n")

    @pytest.mark.parametrize("argv", [
        ["--claim", "thm41", "--n", "1"],
        ["--claim", "lemma36", "--family", "tree", "--n", "1"],
        ["--claim", "lemma52", "--family", "tree", "--n", "1"],
    ])
    def test_verify_one_vertex_tree(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: a tree with no edge has no perturbation\n"

    @pytest.mark.parametrize("argv", [
        ["--trials", "0"],
        ["--trials", "-1"],
        ["--duplicators", ","],
    ])
    def test_verify_campaign_with_nothing_to_play(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--claim", "thm41", "--seed", "1",
                             "--n", "8", *argv)
        assert code == 1
        assert out == ""
        assert err == "error: a campaign needs at least one trial and one Duplicator\n"

    @pytest.mark.parametrize("sizes", ["0..8", "8..4"])
    def test_verify_bad_size_range(self, capsys, sizes):
        code, out, err = run(capsys, "verify", "--claim", "thm41", "--n", sizes,
                             "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: --n range '{sizes}' needs 1 <= a <= b in a..b\n"

    def test_verify_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "thm55_all", "--params",
                           "n=100", "H=5", "Delta=4")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[5]) - 428.58) < 1.0

    def test_synth_parses_back(self, tmp_path, capsys):
        a = tmp_path / "c4.json"
        b = tmp_path / "c3.json"
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(a)])
        main(["gen", "--family", "cycle", "--n", "3", "--out", str(b)])
        f = tmp_path / "formula.txt"
        code, _, _ = run(capsys, "synth", "--g", str(a), "--h", str(b),
                         "--out", str(f))
        assert code == 0
        from fodef.formulas import parse_formula, evaluate
        from fodef.graphs import load_graph
        formula = parse_formula(f.read_text().strip(), strict=True)
        assert evaluate(formula, load_graph(str(a)))
        assert not evaluate(formula, load_graph(str(b)))

    def test_export_dot(self, tmp_path, capsys):
        p = tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(p)])
        d = tmp_path / "c4.dot"
        code, _, _ = run(capsys, "export-dot", "--in", str(p),
                         "--highlight", "0,2", "--out", str(d))
        assert code == 0
        assert "tomato" in d.read_text()
        for vertex in ("99", "4", "-1"):
            bad = tmp_path / f"bad{vertex}.dot"
            code, out, err = run(capsys, "export-dot", "--in", str(p),
                                 f"--highlight={vertex}", "--out", str(bad))
            assert code == 1
            assert out == "" and not bad.exists()
            assert err == f"error: highlighted vertex {vertex} out of range\n"

    def test_separate_brute_without_separator(self, tmp_path, capsys):
        p = tmp_path / "c5.json"
        run(capsys, "gen", "--family", "cycle", "--n", "5", "--out", str(p))
        code, out, err = run(capsys, "separate", "--in", str(p), "--method",
                             "brute", "--epsilon", "1/5", "--size-cap", "2")
        assert code == 1
        assert out == ""
        assert err == ("error: no set of at most 2 vertices leaves flaps of "
                       "at most 1/5 * 5 vertices\n")

    def test_domain_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(p)])
        code, _, err = run(capsys, "separate", "--in", str(p),
                           "--method", "centroid")
        assert code == 1
        assert "tree" in err

    def test_play_human_at_end_of_input(self, tmp_path, capsys, monkeypatch):
        # as `fodef play ... --duplicator human < /dev/null`
        a, b = tmp_path / "c3.json", tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "3", "--out", str(a)])
        main(["gen", "--family", "cycle", "--n", "4", "--out", str(b)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, _, err = run(capsys, "play", "--g", str(a), "--h", str(b),
                           "--rounds", "3", "--duplicator", "human")
        assert code == 1
        assert err == "error: input ended\n"

    @pytest.mark.parametrize("text", [
        '{"n": 3, "edges": [[0, 1], [1, "a"]]}',
        '{"n": 3, "edges": [[0, 1], [1, 2.0]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": ["01"]}',
        '{"n": "3", "edges": [[0, 1]]}',
        '{"n": 3.5, "edges": []}',
        '{"n": 2, "edges": [[0, 1]], "colors": [1, 2]}',
    ])
    def test_bad_graph_json_exit_code(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out, err = run(capsys, "classify", "--in", str(p))
        assert code == 1
        assert out == ""
        assert err.startswith("error: graph JSON ") and err.count("\n") == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["separate"])
        assert exc.value.code == 2


class TestCampaignHelpers:
    def test_parse_sizes(self):
        assert _parse_sizes("16..128") == [16, 32, 64, 128]
        assert _parse_sizes("1..4") == [1, 2, 4]
        assert _parse_sizes("5..5") == [5]
        assert _parse_sizes("4,5,6") == [4, 5, 6]
        # a start below 1 never doubled past the end, and an empty range
        # fell back to the default sizes
        for text in ("0..8", "-2..8", "8..4"):
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                _parse_sizes(text)

    def test_perturb_tree_without_edge(self):
        with pytest.raises(GraphError, match="no edge"):
            perturb_tree(ColoredGraph.build(1, []), random.Random(1))

    def test_perturb_tree_stays_tree(self):
        import random
        g = random_bounded_tree(20, 3, 1)
        rng = random.Random(5)
        for _ in range(10):
            h = perturb_tree(g, rng)
            assert h.n == g.n
            assert h.edge_count() == g.n - 1
            assert h.is_connected()

    def test_perturb_hop_stays_in_class(self):
        import random
        g = random_hop(14, 3)
        rng = random.Random(5)
        for _ in range(10):
            h = perturb_hop(g, rng)
            assert classify_o(h).tag == "HOP"

    @given(st.integers(3, 40), st.integers(0, 10**6), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_perturb_hop_matches_reference(self, n, seed, steps):
        # random_hop, or a few perturbations of it: both keep the cycle 0..n-1
        g = random_hop(n, seed)
        rng = random.Random(seed)
        for _ in range(steps):
            g = perturb_hop(g, rng)
        chords, candidates = reference_candidates(g)
        assert _addable_chords(n, chords) == candidates
        h = perturb_hop(g, random.Random(seed + 1))
        assert h == reference_perturb_hop(g, random.Random(seed + 1))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_perturb_hop_large_stays_hop(self, seed):
        h = perturb_hop(random_hop(4096, seed), random.Random(seed))
        assert classify_o(h).tag == "HOP"
