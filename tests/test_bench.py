from __future__ import annotations

import pytest

from btfvs.bench import BenchRecord, bench, to_csv
from btfvs.cli import main
from btfvs.generators import GenKind, GenSpec, generate
from btfvs.io import serialize_instance


def small_corpus(count=4, k=2):
    out = []
    for i in range(count):
        spec = GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=100 + i)
        out.append((spec.file_stem(), generate(spec), k))
    return out


class TestBench:
    def test_runs_all_solvers(self):
        records = bench(small_corpus(), ["oracle", "branch", "exact", "approx4"])
        assert len(records) == 4 * 4
        by_solver = {r.solver for r in records}
        assert by_solver == {"oracle", "branch", "exact", "approx4"}

    def test_minima_agree_and_flagged(self):
        records = bench(small_corpus(), ["oracle", "exact", "approx4"])
        by_inst: dict = {}
        for r in records:
            by_inst.setdefault(r.instance_id, {})[r.solver] = r
        for rs in by_inst.values():
            assert rs["oracle"].size == rs["exact"].size
            assert rs["approx4"].approximate
            assert not rs["oracle"].approximate

    def test_pipeline_solver_included(self):
        from btfvs.pipeline import ConstantsProfile
        records = bench(small_corpus(count=2), ["branch", "pipeline"],
                        profile=ConstantsProfile.toy())
        statuses = {}
        for r in records:
            statuses.setdefault(r.instance_id, set()).add(r.status)
        for got in statuses.values():
            assert len(got) == 1  # budget answers agree

    def test_workers_match_sequential(self):
        corpus = small_corpus(count=3)
        seq = bench(corpus, ["oracle", "branch"], workers=1)
        par = bench(corpus, ["oracle", "branch"], workers=2)
        strip = lambda rs: [(r.instance_id, r.solver, r.status, r.size) for r in rs]
        assert strip(seq) == strip(par)

    def test_instance_above_oracle_cap_is_recorded(self, tmp_path):
        # the 9x9 instance has 18 vertices, above the default oracle cap of
        # 16: its oracle row says so and the run goes on
        specs = [GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=1),
                 GenSpec(9, 9, GenKind.UNIFORM_RANDOM, seed=1)]
        corpus = [(spec.file_stem(), generate(spec), None) for spec in specs]
        records = bench(corpus, ["oracle", "branch"])
        assert len(records) == 4
        big = {r.solver: r for r in records if r.instance_id == specs[1].file_stem()}
        assert (big["oracle"].status, big["oracle"].size, big["oracle"].nodes) == \
            ("too-large", None, 0)
        assert big["branch"].status == "solution"

        (tmp_path / "corpus").mkdir()
        for iid, T, _ in corpus:
            (tmp_path / "corpus" / f"{iid}.json").write_text(serialize_instance(T))
        out_csv = tmp_path / "results.csv"
        code = main(["bench", "--corpus", str(tmp_path / "corpus"),
                     "--solvers", "oracle,branch", "--out", str(out_csv)])
        assert code == 0
        rows = [line.split(",")[:2] for line in out_csv.read_text().splitlines()[1:]]
        assert sorted(rows) == sorted([iid, s] for iid, _, _ in corpus
                                      for s in ("oracle", "branch"))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers, tmp_path):
        with pytest.raises(ValueError):
            bench(small_corpus(count=1), ["branch"], workers=workers)
        (tmp_path / "corpus").mkdir()
        for iid, T, k in small_corpus(count=1):
            (tmp_path / "corpus" / f"{iid}.json").write_text(serialize_instance(T, k=k))
        assert main(["--workers", str(workers), "bench", "--corpus",
                     str(tmp_path / "corpus"), "--solvers", "branch"]) == 2

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            bench(small_corpus(count=1), ["magic"])

    def test_exact_rows_count_every_restart(self, monkeypatch):
        # an exact row's nodes are the branch nodes of every budget restart
        # its minimiser ran, the proofs of no included
        from btfvs import solvers
        spent = []

        def counting(*args, _original=solvers.branch_solve, **kwargs):
            res = _original(*args, **kwargs)
            spent[-1] += res.stats.nodes
            return res

        monkeypatch.setattr(solvers, "branch_solve", counting)
        restarted = 0
        for spec in (GenSpec(6, 6, GenKind.UNIFORM_RANDOM, seed=3),
                     GenSpec(7, 6, GenKind.PLANTED_FVS, seed=4, k_plant=3),
                     GenSpec(5, 5, GenKind.ACYCLIC, seed=5)):
            spent.append(0)
            [record] = bench([(spec.file_stem(), generate(spec), None)], ["exact"])
            assert record.nodes == spent[-1]
            restarted += record.nodes > 1
        assert restarted >= 2

    def test_csv_shape(self):
        records = [BenchRecord("x", "oracle", "solution", 2, 10, 1.25)]
        text = to_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == "instance,solver,status,size,nodes,ms"
        assert lines[1] == "x,oracle,solution,2,10,1.250"
