from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import btfvs
from btfvs.dfvc import DfvcInstance
from btfvs.errors import ParseError
from btfvs.generators import GenKind, GenSpec, generate
from btfvs.graph import BipartiteTournament, MixedMultigraph
from btfvs.io import (parse_dfvc, parse_instance, resolve_edge_list,
                      serialize_dfvc, serialize_instance)
from btfvs.cli import main

from conftest import a, b, tournament


def reference_text(T, k=None, metadata=None, extras=None) -> str:
    """The instance file as one ``json.dumps`` of the whole object."""
    obj = {"m": T.m, "n": T.n, "orient": [[int(x) for x in row] for row in T.orient]}
    if k is not None:
        obj["k"] = k
    if T.labels is not None:
        obj["labels"] = list(T.labels)
    if metadata is not None:
        obj["metadata"] = metadata
    obj.update(extras or {})
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestInstanceFormat:
    def test_serializer_matches_one_reference_dump(self):
        rng = random.Random(27)
        scalars = [0, -7, 2.5, 10 ** 20, "", "x\ny", "ünï ☃", None, True, False]

        def value(depth=0):
            pick = rng.random()
            if depth > 2 or pick < 0.4:
                return rng.choice(scalars)
            if pick < 0.7:
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            return {rng.choice(["a", "z", "é", "line\nbreak", "orient"]): value(depth + 1)
                    for _ in range(rng.randrange(4))}

        shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randrange(7), rng.randrange(7))
                                               for _ in range(300)]
        for m, n in shapes:
            orient = [[rng.random() < 0.5 for _ in range(n)] for _ in range(m)]
            labels = [f"v{g}·é" for g in range(m + n)] if rng.random() < 0.3 else None
            T = BipartiteTournament(m, n, orient, labels)
            k = rng.choice([None, 0, 4])
            metadata = value() if rng.random() < 0.5 else None
            extras = {rng.choice(["custom", "zz", "a b", "é", "k", "m", "labels", "orient"]):
                      value() for _ in range(rng.randrange(3))}
            assert serialize_instance(T, k, metadata, extras) == \
                reference_text(T, k, metadata, extras)
        T = generate(GenSpec(2, 3, GenKind.UNIFORM_RANDOM, seed=1))
        for extras in ({"orient": [[5]]}, {"m": "two", "metadata": {"x": [1]}}):
            assert serialize_instance(T, 1, {"y": 2}, extras) == \
                reference_text(T, 1, {"y": 2}, extras)

    @pytest.mark.parametrize("cell", [2, True, False, 1.0, "1", None, [0]])
    def test_each_malformed_cell_named_with_its_value(self, cell):
        for i, j in ((0, 0), (1, 2), (2, 1)):
            rows = [[0, 1, 1], [1, 0, 0], [1, 1, 0]]
            rows[i][j] = cell
            text = json.dumps({"m": 3, "n": 3, "orient": rows})
            with pytest.raises(ParseError) as exc:
                parse_instance(text)
            assert str(exc.value) == f"orient[{i}][{j}] must be 0 or 1, got {cell!r}"

    def test_short_row_named_after_every_cell_is_checked(self):
        short = {"m": 3, "n": 3, "orient": [[0, 1, 1], [1, 0], [1, 1, 0]]}
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(short))
        assert str(exc.value) == "row 1 has 2 entries, expected 3"
        short["orient"][2][2] = 2  # a bad cell in a later row still comes first
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(short))
        assert str(exc.value) == "orient[2][2] must be 0 or 1, got 2"

    def test_round_trip_random(self):
        for seed in range(30):
            T = generate(GenSpec(1 + seed % 5, 1 + (seed // 2) % 5,
                                 GenKind.UNIFORM_RANDOM, seed=seed))
            parsed = parse_instance(serialize_instance(T, k=3))
            assert parsed.tournament == T
            assert parsed.k == 3

    def test_labels_round_trip(self):
        T = BipartiteTournament(1, 2, [[True, False]], labels=["x", "y", "z"])
        parsed = parse_instance(serialize_instance(T))
        assert parsed.tournament == T
        assert parsed.tournament.labels == ("x", "y", "z")

    def test_unknown_fields_preserved(self):
        text = serialize_instance(generate(GenSpec(2, 2, GenKind.ACYCLIC, seed=1)))
        obj = json.loads(text)
        obj["custom"] = {"nested": [1, 2]}
        parsed = parse_instance(json.dumps(obj))
        assert parsed.extras == {"custom": {"nested": [1, 2]}}
        again = serialize_instance(parsed.tournament, k=parsed.k,
                                   metadata=parsed.metadata, extras=parsed.extras)
        assert json.loads(again)["custom"] == {"nested": [1, 2]}

    def test_truncated_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"m": 2, "n": 2, "orient": [[1,')
        assert exc.value.line is not None

    def test_bad_cell_named(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"m": 1, "n": 2, "orient": [[1, 2]]}')
        assert "orient[0][1]" in str(exc.value)

    def test_bool_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"m": 1, "n": 1, "orient": [[true]]}')

    @pytest.mark.parametrize("field", ["m", "n", "k"])
    def test_bool_count_rejected(self, field):
        # JSON true is a Python int; a count or budget must not accept it
        obj = {"m": 1, "n": 2, "orient": [[1, 0]], "k": 1, field: True}
        with pytest.raises(ParseError, match="True"):
            parse_instance(json.dumps(obj))

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"m": 2, "n": 2, "orient": [[1], [0, 1]]}')

    def test_edge_list_resolution(self, chain_2x2):
        edges = resolve_edge_list(chain_2x2, "a0-b0, b1-a1")
        assert (a(0), b(0)) in edges
        assert (a(1), b(1)) in edges  # direction recovered from the arc


class TestDfvcFormat:
    def test_round_trip(self):
        p0 = BipartiteTournament(2, 2, [[True, False], [False, True]],
                                 labels=["u0", "u1", "v0", "v1"])
        p1 = BipartiteTournament(1, 1, [[True]], labels=["w0", "w1"])
        g = MixedMultigraph([p0, p1], [((0, a(0)), (1, b(0)))])
        inst = DfvcInstance(g, frozenset({(1, a(0))}), 2)
        parsed = parse_dfvc(serialize_dfvc(inst))
        assert parsed.budget == 2
        assert parsed.graph == g
        assert parsed.forbidden == inst.forbidden

    def test_duplicate_labels_rejected(self):
        p0 = BipartiteTournament(1, 1, [[True]], labels=["x", "y"])
        p1 = BipartiteTournament(1, 1, [[True]], labels=["x", "z"])
        g = MixedMultigraph([p0, p1], [])
        with pytest.raises(ParseError):
            parse_dfvc(serialize_dfvc(DfvcInstance(g, frozenset(), 1)))


@pytest.fixture
def square_file(tmp_path):
    T = tournament([[True, False], [False, True]])
    path = tmp_path / "square.json"
    path.write_text(serialize_instance(T, k=1))
    return path


_KNOBS = {"hom_window": 2, "large_ratio": 3, "weak_matching": 2, "block_degree": 3,
          "part_fvs_f": 1, "part_degree_d": 2, "budget_slack": 1, "sample_q": 2}
_MIXED = json.loads(serialize_dfvc(DfvcInstance(MixedMultigraph(
    [BipartiteTournament(2, 2, [[True, False], [False, True]],
                         labels=["u0", "u1", "v0", "v1"])], []), frozenset(), 1)))


_SQUARE = {"m": 2, "n": 2, "orient": [[1, 0], [0, 1]], "k": 1}
_BAD_INSTANCES = [
    "{nope", "", "[1, 2]", "null", '"text"', '{"n": 2, "orient": []}',
    *(json.dumps({**_SQUARE, **change}) for change in (
        {"m": True}, {"n": False}, {"k": True}, {"k": False}, {"m": -1}, {"m": "2"},
        {"m": 2.0}, {"m": 10 ** 12}, {"k": -1}, {"k": "1"}, {"k": 1.5},
        {"orient": {}}, {"orient": [1, 2]}, {"orient": [[1, 2], [0, 1]]},
        {"orient": [[True, 0], [0, 1]]}, {"orient": [[None, 0], [0, 1]]},
        {"orient": [[1.0, 0], [0, 1]]}, {"orient": [[1, 0.0], [0, 1]]},
        {"orient": [[[1], 0], [0, 1]]}, {"orient": [[1], [0, 1]]},
        {"orient": [[1, 0]]}, {"labels": [1, 2, 3, 4]}, {"labels": ["a", "b"]},
        {"labels": "abcd"})),
]
_PART = {"m": 1, "n": 1, "orient": [[1]], "labels": ["u", "v"]}
_MIXED_OK = {"parts": [_PART, {**_PART, "labels": ["w", "x"]}],
             "undirected": [["u", "w"]], "forbidden": [], "budget": 1}
_BAD_MIXED = [
    {**_MIXED_OK, "budget": True}, {**_MIXED_OK, "budget": 1.0},
    {**_MIXED_OK, "parts": [{**_PART, "m": True}, _MIXED_OK["parts"][1]]},
    {**_MIXED_OK, "parts": [{**_PART, "k": True}, _MIXED_OK["parts"][1]]},
    {**_MIXED_OK, "parts": [5]}, {**_MIXED_OK, "parts": {}},
    {**_MIXED_OK, "undirected": [["u", "zz"]]},
    {**_MIXED_OK, "undirected": [["u", "w"], ["u", "x"]]},
    {**_MIXED_OK, "forbidden": ["zz"]}, {**_MIXED_OK, "forbidden": "u"},
    {key: v for key, v in _MIXED_OK.items() if key != "budget"},
    {**_MIXED_OK, "budget": -1},
]


class TestCliFuzz:
    """Malformed input files exit 2 with a one-line error, whichever
    command reads them."""

    COMMANDS = (["solve"], ["oracle"], ["approx"], ["exact"], ["structure"],
                ["verify"], ["--profile", "toy", "pipeline"], ["dfvc"])

    @staticmethod
    def _rejects(capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)

    @pytest.mark.parametrize("text", _BAD_INSTANCES)
    def test_malformed_instance(self, tmp_path, capsys, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        for command in self.COMMANDS:
            self._rejects(capsys, [*command, str(path)])
        self._rejects(capsys, ["bench", "--corpus", str(tmp_path)])

    @pytest.mark.parametrize("payload", _BAD_MIXED)
    def test_malformed_mixed_multigraph(self, tmp_path, capsys, payload):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload))
        self._rejects(capsys, ["dfvc", str(path)])

    @pytest.mark.parametrize("payload", [
        {**_KNOBS, "hom_window": True}, {**_KNOBS, "sample_q": 0},
        {**_KNOBS, "family_cap": 1.5}, {**_KNOBS, "colour": 1}, {"hom_window": 2},
        [1], None, "{nope",
    ])
    def test_malformed_knob_file(self, tmp_path, square_file, capsys, payload):
        path = tmp_path / "knobs.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "square.json").write_text(square_file.read_text())
        for command in (["pipeline", str(square_file)], ["bench", "--corpus", str(corpus)]):
            self._rejects(capsys, ["--profile", f"file:{path}", *command])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"profile": payload}))
        self._rejects(capsys, ["check-lemmas", "--config", str(config), "--quick"])


class TestLargeInstanceIo:
    def test_gen_at_500_per_side_writes_the_reference_file(self, tmp_path):
        # generating, writing and reading 250,000 cells, and the structure
        # command on the acyclic file, through a fresh interpreter each
        env = dict(os.environ, PYTHONPATH=str(Path(btfvs.__file__).parent.parent))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "btfvs", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        for kind in (GenKind.UNIFORM_RANDOM, GenKind.ACYCLIC):
            done = run("--seed", "3", "gen", "--kind", kind.value, "--m", "500", "--n", "500",
                       "--out", str(tmp_path))
            assert (done.returncode, done.stderr) == (0, "")
            # gen's defaults: k_plant 2 and twin factors 2 seed every kind
            spec = GenSpec(500, 500, kind, seed=3, k_plant=2, twin_a=2, twin_b=2)
            meta = {"generator": {"kind": kind.value, "m": 500, "n": 500, "seed": 3,
                                  "k_plant": 2, "twin_a": 2, "twin_b": 2}}
            path = tmp_path / f"{spec.file_stem()}.json"
            assert done.stdout == f"{path}\n"
            T = generate(spec)
            text = path.read_text()
            assert text == reference_text(T, metadata=meta)
            assert parse_instance(text) == (T, None, meta, {})
        shown = run("structure", str(path))
        assert (shown.returncode, shown.stderr) == (0, "")
        layers = json.loads(shown.stdout)["sequence"]
        assert sorted(label for layer in layers for label in layer) == \
            sorted(T.label(v) for v in T.vertices())

    @pytest.mark.parametrize("command", ["solve", "pipeline"])
    def test_search_500_deletions_deep_answers(self, command, tmp_path, capsys):
        # the search's first descent deletes 499 vertices of the 500-per-side
        # uniform file, one stack frame each
        assert main(["--seed", "1", "gen", "--kind", "uniform", "--m", "500", "--n", "500",
                     "--out", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert main([command, "--budget", "1000", path]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 499


class TestCli:
    @pytest.mark.parametrize("command, payload", [
        ("dfvc", {**_MIXED, "parts": 5}),
        ("dfvc", {**_MIXED, "budget": "x"}),
        ("dfvc", {**_MIXED, "budget": None}),
        ("dfvc", {**_MIXED, "undirected": [5]}),
        ("dfvc", {**_MIXED, "forbidden": [[1]]}),
        ("profile", {key: v for key, v in _KNOBS.items() if key != "sample_q"}),
        ("profile", {**_KNOBS, "colour": 1}),
        ("profile", [1, 2]),
        ("profile", {**_KNOBS, "hom_window": "x"}),
        ("check-lemmas", {"seed": "x"}),
        ("check-lemmas", {"profile": {"hom_window": 2}}),
        ("check-lemmas", {"random_trials": -5}),
    ])
    def test_malformed_file_is_usage_error(self, tmp_path, square_file, capsys,
                                           command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = {"dfvc": ["dfvc", str(path)],
                "profile": ["--profile", f"file:{path}", "pipeline", str(square_file)],
                "check-lemmas": ["check-lemmas", "--config", str(path), "--quick"]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["exact", "{dir}"],
        ["check-lemmas", "--config", "{dir}", "--quick"],
        ["pipeline", "{file}", "--trace", "{dir}"],
        ["pipeline", "{file}", "--emit-families", "{file}"],
        ["bench", "--corpus", "{dir}", "--out", "{dir}"],
    ])
    def test_unusable_path_is_usage_error(self, square_file, capsys, argv):
        # a directory read or written as a file, or a file made a directory:
        # the OSError is a usage error, not a traceback read as "no solution"
        paths = {"dir": str(square_file.parent), "file": str(square_file)}
        code = main(["--profile", "toy", *(arg.format(**paths) for arg in argv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--solution", "zz"],
        ["solve", "--forbidden", "zz"],
        ["solve", "--cover-edges", "a0-zz"],
        ["structure", "--m-seq", "--m", "zz"],
        ["oracle", "--required", "qq"],
    ])
    def test_unknown_label_is_usage_error(self, square_file, capsys, argv):
        code = main([argv[0], str(square_file), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert repr(argv[-1].rsplit("-", 1)[-1]) in err

    def test_solve_yes(self, square_file, capsys):
        code = main(["solve", str(square_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out) == ["a0"]

    def test_solve_no(self, square_file, capsys):
        code = main(["solve", str(square_file), "--budget", "0"])
        assert code == 1

    def test_solve_forbidden_all(self, square_file):
        code = main(["solve", str(square_file), "--budget", "4",
                     "--forbidden", "a0,a1,b0,b1"])
        assert code == 1

    def test_oracle_and_exact_agree(self, square_file, capsys):
        assert main(["oracle", str(square_file)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["exact", str(square_file)]) == 0
        second = json.loads(capsys.readouterr().out)
        assert len(first) == len(second) == 1

    def test_approx_too_big(self, square_file, capsys, tmp_path):
        assert main(["approx", str(square_file)]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 4

    @pytest.mark.parametrize("command,status", [
        ("solve", "no-solution"), ("pipeline", "no-solution"),
        ("oracle", "no-solution"), ("approx", "too-big"),
    ])
    def test_negative_budget_has_no_solution(self, tmp_path, capsys, command, status):
        # no feedback vertex set has negative size, not even on an acyclic
        # instance, whose minimum is empty
        path = tmp_path / "acyclic.json"
        path.write_text(serialize_instance(generate(GenSpec(3, 3, GenKind.ACYCLIC, seed=4))))
        assert main(["--json", command, str(path), "--budget", "-1"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == status

    def test_structure(self, tmp_path, capsys):
        T = generate(GenSpec(2, 2, GenKind.ACYCLIC, seed=3))
        path = tmp_path / "acyclic.json"
        path.write_text(serialize_instance(T))
        assert main(["structure", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sequence" in payload

    def test_structure_cyclic_is_usage_error(self, square_file):
        assert main(["structure", str(square_file)]) == 2

    def test_structure_m_seq(self, square_file, capsys):
        code = main(["structure", str(square_file), "--m-seq", "--m", "a0,b0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"]
        assert "back_edges" in payload

    def test_pipeline(self, square_file, capsys):
        code = main(["--profile", "toy", "pipeline", str(square_file)])
        assert code == 0
        solution = json.loads(capsys.readouterr().out)
        assert len(solution) == 1
        assert solution[0] in ("a0", "a1", "b0", "b1")

    def test_pipeline_trace(self, square_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        fams = tmp_path / "fams"
        code = main(["--profile", "toy", "pipeline", str(square_file),
                     "--trace", str(trace), "--emit-families", str(fams)])
        assert code == 0
        assert trace.read_text().startswith("stage,family_size")

    def test_gen_writes_named_files(self, tmp_path, capsys):
        code = main(["gen", "--kind", "acyclic", "--m", "3", "--n", "2",
                     "--count", "2", "--out", str(tmp_path / "corpus")])
        assert code == 0
        files = sorted((tmp_path / "corpus").glob("*.json"))
        assert len(files) == 2
        assert files[0].name.startswith("acyclic-3x2-")
        parsed = parse_instance(files[0].read_text())
        assert parsed.metadata["generator"]["kind"] == "acyclic"

    def test_gen_deterministic(self, tmp_path):
        assert main(["--seed", "9", "gen", "--kind", "uniform", "--m", "4",
                     "--n", "4", "--out", str(tmp_path / "c1")]) == 0
        assert main(["--seed", "9", "gen", "--kind", "uniform", "--m", "4",
                     "--n", "4", "--out", str(tmp_path / "c2")]) == 0
        f1 = next((tmp_path / "c1").glob("*.json")).read_text()
        f2 = next((tmp_path / "c2").glob("*.json")).read_text()
        assert f1 == f2

    @pytest.mark.parametrize("flags", [
        ["--k", "-1"], ["--count", "-1"], ["--kind", "planted", "--k-plant", "-3"],
        ["--kind", "twinheavy", "--twin-a", "0"], ["--twin-b", "-1"],
    ])
    def test_gen_rejects_what_no_command_accepts(self, tmp_path, capsys, flags):
        out = tmp_path / "corpus"
        code = main(["gen", "--kind", "uniform", "--m", "3", "--n", "3", "--out", str(out),
                     *flags])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, err
        assert not out.exists()

    def test_verify(self, square_file):
        assert main(["verify", str(square_file), "--solution", "a0"]) == 0
        assert main(["verify", str(square_file), "--solution", ""]) == 1
        assert main(["verify", str(square_file), "--solution", "a0,b0",
                     "--budget", "1"]) == 1

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["solve", str(bad)]) == 2
        assert main(["solve", str(tmp_path / "missing.json")]) == 2

    def test_usage_error(self):
        assert main(["solve"]) == 2
        assert main(["not-a-command"]) == 2

    def test_pipeline_overflow_past_printable_sizes_answers(self, tmp_path, capsys):
        # the paper profile at k = 33 sizes a sample space of over 6,000
        # digits: a diagnostic and the fallback's answer, not a usage error
        path = tmp_path / "big.json"
        path.write_text(serialize_instance(generate(GenSpec(30, 30, GenKind.UNIFORM_RANDOM, 1)),
                                           k=33))
        assert main(["pipeline", str(path)]) == 0
        assert capsys.readouterr().err == \
            "sample space: family of size >= 2**22504 exceeds cap 50000\n"

    def test_pipeline_json_names_the_route(self, tmp_path, capsys):
        # --json carries nodes, trace, diagnostics and used_fallback, on a
        # no as on a yes
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        path = tmp_path / "inst.json"
        routes = {}
        for k in (1, 2):
            path.write_text(serialize_instance(T, k=k))
            main(["--json", "--profile", "toy", "pipeline", str(path)])
            routes[k] = json.loads(capsys.readouterr().out)
        no, yes = routes[1], routes[2]
        assert no == {"status": "no-solution", "nodes": 1, "trace": [["search", 1]],
                      "diagnostics": [], "used_fallback": False}
        assert yes["status"] == "solution" and yes["nodes"] == 3
        assert yes["trace"] == [["seed", 4], ["regular", 5], ["weak", 5], ["matched", 5],
                                ["lowblockdegree", 5], ["decoupled", 6]]
        assert (yes["diagnostics"], yes["used_fallback"]) == ([], False)

    def test_huge_sample_q_overflows_before_the_prime_power_search(self, tmp_path, capsys):
        # a sample_q of 10**18 has no prime power found by trial division
        # in any reasonable time; its sample space has at least 10**36
        # members, over the cap, so the overflow and the fallback answer
        # come at once
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        knobs, path = tmp_path / "knobs.json", tmp_path / "inst.json"
        knobs.write_text(json.dumps({**_KNOBS, "sample_q": 10 ** 18}))
        path.write_text(serialize_instance(T, k=2))
        t0 = time.perf_counter()
        code = main(["--json", "--profile", f"file:{knobs}", "pipeline", str(path)])
        assert time.perf_counter() - t0 < 1.0
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "solution" and out["used_fallback"]
        assert (out["trace"], out["diagnostics"]) == \
            ([["seed", 0]], [f"sample space: family of size >= {10 ** 36} exceeds cap 50000"])

    def test_python_dash_m(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(btfvs.__file__).parent.parent))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "btfvs", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        shown = run("--help")
        assert shown.returncode == 0 and "usage: btfvs" in shown.stdout
        missing = run("solve", str(tmp_path / "missing.json"))
        assert missing.returncode == 2 and missing.stderr.startswith("error: ")

    def test_cli_import_loads_neither_lemma_suite_nor_bench(self):
        # only check-lemmas and bench need them; every other command skips
        # compiling them
        env = dict(os.environ, PYTHONPATH=str(Path(btfvs.__file__).parent.parent))
        probe = ("import sys, btfvs.cli; "
                 "print(sorted(m for m in ('btfvs.lemma_suite', 'btfvs.bench') "
                 "if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_bench_help_lists_every_known_solver(self, capsys):
        from btfvs.bench import KNOWN_SOLVERS
        assert main(["bench", "--help"]) == 0
        assert f"comma list from {','.join(KNOWN_SOLVERS)}" in \
            " ".join(capsys.readouterr().out.split())

    def test_cold_toy_pipeline_in_a_fresh_interpreter(self, tmp_path):
        # in-process tests share warm sample-space and family caches; a
        # fresh interpreter builds them, and must print what it always did
        env = dict(os.environ, PYTHONPATH=str(Path(btfvs.__file__).parent.parent))
        T = generate(GenSpec(6, 6, GenKind.PLANTED_FVS, seed=3, k_plant=2))
        path = tmp_path / "planted.json"
        path.write_text(serialize_instance(T, k=2))
        done = subprocess.run([sys.executable, "-m", "btfvs", "--json", "--profile", "toy",
                               "pipeline", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            '{"diagnostics": [], "nodes": 10, "size": 2, "solution": ["a0", "a4"], '
            '"status": "solution", "trace": [["seed", 49], ["regular", 17], ["weak", 20], '
            '["matched", 18], ["lowblockdegree", 17], ["decoupled", 10]], '
            '"used_fallback": false}\n')

    def test_bool_budget_in_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"m": 1, "n": 2, "orient": [[1, 0]], "k": True}))
        assert main(["--json", "solve", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: k must be a non-negative integer, got True\n"

    def test_json_envelope(self, square_file, capsys):
        code = main(["--json", "solve", str(square_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "solution"
        assert payload["solution"] == ["a0"]

    def test_bench(self, tmp_path, capsys):
        main(["gen", "--kind", "uniform", "--m", "3", "--n", "3",
              "--count", "3", "--out", str(tmp_path / "corpus"), "--k", "2"])
        capsys.readouterr()
        out_csv = tmp_path / "results.csv"
        code = main(["bench", "--corpus", str(tmp_path / "corpus"),
                     "--solvers", "oracle,branch,exact,approx4",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "instance,solver,status,size,nodes,ms"
        assert len(lines) == 1 + 3 * 4

    def test_dfvc_subcommand(self, tmp_path, capsys):
        # a square part plus an undirected edge between two acyclic parts:
        # the optimum needs one deletion for each
        p0 = BipartiteTournament(2, 2, [[True, False], [False, True]],
                                 labels=["u0", "u1", "v0", "v1"])
        p1 = BipartiteTournament(1, 1, [[True]], labels=["w0", "w1"])
        p2 = BipartiteTournament(1, 1, [[True]], labels=["x0", "x1"])
        g = MixedMultigraph([p0, p1, p2], [((1, a(0)), (2, b(0)))])
        inst = DfvcInstance(g, frozenset(), 2)
        path = tmp_path / "mixed.json"
        path.write_text(serialize_dfvc(inst))
        assert main(["dfvc", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert main(["dfvc", str(path)]) == 0
        path.write_text(serialize_dfvc(DfvcInstance(g, frozenset(), 1)))
        assert main(["dfvc", str(path)]) == 1

    def test_dfvc_long_matching_over_budget_answers_no(self, tmp_path, capsys):
        # 1,200 matched edges at budget 0: a plain no, exit 1, whatever the
        # recursion limit
        captured = self._run_long_matching(tmp_path, capsys, 0, 1)
        assert captured.out == "no solution within budget\n"

    def test_dfvc_long_matching_within_budget_answers(self, tmp_path, capsys):
        # the same 1,200 edges at budget 1,200: one endpoint of each edge,
        # exit 0, with no recursion that could outgrow the limit
        captured = self._run_long_matching(tmp_path, capsys, 1200, 0)
        assert len(json.loads(captured.out)) == 1200

    @staticmethod
    def _run_long_matching(tmp_path, capsys, budget: int, code: int):
        part = BipartiteTournament(1200, 1, [[True]] * 1200)
        g = MixedMultigraph([part, part], [((0, a(i)), (1, a(i))) for i in range(1200)])
        path = tmp_path / "mixed.json"
        path.write_text(serialize_dfvc(DfvcInstance(g, frozenset(), budget)))
        t0 = time.perf_counter()
        assert main(["dfvc", str(path)]) == code
        assert time.perf_counter() - t0 < 5
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return captured

    def test_check_lemmas_smoke(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 5, "random_trials": 30, "structure_trials": 20,
            "classify_trials": 20, "solver_trials": 10, "long_back_trials": 5,
            "reduction_trials": 10, "monotonicity_trials": 10,
            "backward_trials": 4, "end_to_end_trials": 4, "dfvc_trials": 10,
            "forward_trials": 4, "exhaustive_side": 2,
        }))
        out = tmp_path / "report.json"
        code = main(["check-lemmas", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert len(report["results"]) == 18
