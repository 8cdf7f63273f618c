"""Tests of the benchmark itself (not of pgal).

    python3 -m pytest perfbench/tests -q

Run from the root of a pgal source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


def _blocks_in_subprocess(hash_seed: str) -> str:
    code = ("import json, workloads; print(json.dumps([workloads.block(w, 7, b) "
            "for w in workloads.WORKLOADS for b in range(3)]))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_inputs_are_a_pure_function_of_the_seed():
    assert _blocks_in_subprocess("1") == _blocks_in_subprocess("2")
    for w in workloads.WORKLOADS:
        assert workloads.block(w, 7, 0) == workloads.block(w, 7, 0)
        assert workloads.block(w, 7, 0) != workloads.block(w, 8, 0)
        assert workloads.block(w, 7, 0) != workloads.block(w, 7, 1)


def test_every_pool_entry_has_a_recorded_answer():
    assert set(workloads.catalog_pool()) == set(EXPECTED["catalog-tables"])
    assert set(workloads.h2_pool()) == set(EXPECTED["h2-cocycles"])
    assert {workloads.cli_key(a) for a in workloads.cli_pool()} == set(EXPECTED["cli-requests"])


def _count(keys, tier):
    return sum(k in tier for k in keys)


def test_blocks_are_stratified():
    for seed in range(20):
        cat = [j["spec"] for j in workloads.block("catalog-tables", seed, 0)]
        assert len(cat) == 32
        for tier, count in workloads._CATALOG_TIERS:
            assert _count(cat, tier) == count
        assert _count(cat, workloads.CATALOG_4096) == 1
        odd = [j["spec"] for j in workloads.block("catalog-tables", seed, 1)]
        assert _count(odd, workloads.CATALOG_HEAVY) == 1
        for fam, pool in workloads.CATALOG_SMALL.items():
            assert _count(cat, pool) == 1, fam
        h2 = [j["key"] for j in workloads.block("h2-cocycles", seed, 0)]
        assert len(h2) == 22
        for tier, count in workloads._H2_TIERS:
            assert _count(h2, tier) == count
        cli = workloads.block("cli-requests", seed, 0)
        assert sum(j["argv"][:2] == ["autoreal", "query"] for j in cli) == 1
        assert len(cli) == 11
        parts = workloads.cli_pool_parts()
        for kind in workloads.SEMIPRIME_CARRIERS:
            assert sum(j["argv"] in parts[f"symbol:{kind}"] for j in cli) == 1, kind


def test_runs_at_the_benchmark_length_do_fixed_work():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    planned = {w: workloads.blocks_in_run(w, seconds) for w in workloads.WORKLOADS}
    # the block counts the tier comments in workloads.py are written for
    assert planned == {"catalog-tables": 3, "h2-cocycles": 2, "cli-requests": 5}
    assert workloads.blocks_in_run("catalog-tables", 1) == 1


def test_known_h2_dimensions():
    assert checks.known_h2_dimension("D:8*C:2", 2) == 6
    assert checks.known_h2_dimension("EA:p=2,r=5", 2) == 15
    assert checks.known_h2_dimension("G1:p=3", 3) == 4
    assert checks.known_h2_dimension("C:25", 5) == 1
    for key, rec in EXPECTED["h2-cocycles"].items():
        spec, p = key.rsplit("@", 1)
        assert checks.known_h2_dimension(spec, int(p)) == rec["dimension"], key


def test_times_scale_to_reference_speed():
    assert calibrate.scale([0.01, 0.04, 0.02]) == calibrate.REFERENCE_S / 0.02
    assert 0 < calibrate.sample() < 1


def test_tail_leaves_ten_jobs_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert sum(t > value for t in range(40)) == 10


def _cheap_jobs():
    out = []
    for w in ("catalog-tables", "h2-cocycles"):
        for b in range(4):
            out += [j for j in workloads.block(w, 3, b)
                    if j["key"] in ("D:16", "Q:16*C:2", "G1:p=3", "MSS:p=3,n=1,j=2",
                                    "D:8@2", "C:9@3", "Q:8*C:2@2", "EA:p=2,r=3@2")]
    return out


def test_traced_outputs_equal_untraced_and_originals_are_restored():
    import jobs
    import pgal.arith
    import pgal.catalog
    import pgal.cohomology
    import pgal.groups
    import pgal.linalg
    import pgal.symbols
    cheap = _cheap_jobs()
    assert cheap
    plain = [jobs.run_job(j)[1] for j in cheap]
    before = {(m.__name__, k): v for m in (pgal.catalog, pgal.cohomology, pgal.symbols,
                                           pgal.groups, pgal.arith)
              for k, v in vars(m).items() if callable(v)}
    init, add_rows = pgal.groups.Group.__init__, pgal.linalg.GFMatrix.add_rows
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pgal.cohomology.quotient is not before[("pgal.cohomology", "quotient")]
        assert pgal.symbols.factor is pgal.arith.factor
        traced = []
        for j in cheap:
            tracer.job = j["id"]
            traced.append(jobs.run_job(j)[1])
    finally:
        tracer.restore()
    assert traced == plain
    for j, ans in zip(cheap, plain):
        assert not checks.check(j, ans, EXPECTED["catalog-tables" if j["kind"] == "catalog"
                                                 else "h2-cocycles"])
    after = {(m.__name__, k): v for m in (pgal.catalog, pgal.cohomology, pgal.symbols,
                                          pgal.groups, pgal.arith)
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert pgal.groups.Group.__init__ is init and pgal.linalg.GFMatrix.add_rows is add_rows
    names = {s[0] for s in tracer.spans}
    assert {"catalog.build_group", "groups.Group.init", "cohomology.h2_enumerate",
            "linalg.GFMatrix.add_rows", "groups.quotient"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_traced_cli_matches_python_m_pgal(tmp_path):
    run.OUT.mkdir(exist_ok=True)
    for argv in (["obstruct", "c4", "--a=6", "--json"], ["groups", "build", "--spec", "X3:16", "--json"]):
        plain = run.run_child([sys.executable, "-m", "pgal", *argv], run.time.perf_counter() + 60)
        path = tmp_path / "spans.json"
        traced = run.run_child([sys.executable, str(BENCH / "traced_cli.py"), str(path), *argv],
                               run.time.perf_counter() + 60)
        assert traced[:2] == plain[:2]
        names = {s[0] for s in json.loads(path.read_text())["spans"]}
        assert {"cli.import", "cli.main"} <= names


def _run_bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("catalog-tables", 0), ("h2-cocycles", 0),
                                            ("cli-requests", 0), ("cli-requests", 1)])
def test_smoke_run(workload, trace):
    p = _run_bench(workload, trace)
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, p.stderr
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_refuses_a_tree_without_pgal_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run_bench("catalog-tables", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
