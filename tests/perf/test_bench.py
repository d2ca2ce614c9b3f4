"""Bench harness: equivalence gate, report schema, persisted JSON."""

import json

import pytest

from repro.perf.backends import Backend, BaselineBackend
from repro.perf.bench import (
    SCHEMA,
    cross_check,
    host_fingerprint,
    render_report,
    run_bench,
    write_report,
)
from repro.perf.engine import BackendMismatch


class _CorruptBackend(Backend):
    """Flips the last bit of otherwise-correct ciphertext."""

    name = "corrupt"

    def __init__(self):
        self._inner = BaselineBackend()

    def encrypt_blocks(self, key, data):
        out = self._inner.encrypt_blocks(key, data)
        if not out:
            return out
        return out[:-1] + bytes([out[-1] ^ 1])


class TestCrossCheck:
    def test_all_registered_backends_agree(self):
        summary = cross_check(corpus_blocks=8)
        assert summary["mismatches"] == 0
        assert "sliced" in summary["backends"]
        assert sorted(summary["primitives"]) == \
            ["ctr", "ecb", "ecb_decrypt", "gctr"]

    def test_broken_backend_is_caught(self):
        with pytest.raises(BackendMismatch, match="corrupt"):
            cross_check({"corrupt": _CorruptBackend()},
                        corpus_blocks=4)


class TestRunBench:
    def test_report_schema_and_speedups(self, tmp_path):
        report = run_bench(quick=True, sizes=[256], reps=1,
                           backend_names=["baseline", "sliced"],
                           corpus_blocks=4, cluster=False)
        assert report["schema"] == SCHEMA
        assert report["quick"] is True
        assert report["equivalence"]["mismatches"] == 0
        rows = report["workloads"]
        # 2 backends x 2 modes x 1 size, plus the serial CBC row.
        assert len(rows) == 5
        for row in rows:
            assert row["measured_blocks"] <= row["blocks"]
            assert row["blocks_per_s"] >= 0
        baseline_rows = [r for r in rows
                        if r["backend"] == "baseline"
                        and not r["chained"]]
        assert all(r["speedup_vs_baseline"] == pytest.approx(1.0)
                   for r in baseline_rows)
        cbc_rows = [r for r in rows if r["chained"]]
        assert len(cbc_rows) == 1
        assert cbc_rows[0]["mode"] == "cbc"

        out = write_report(report, tmp_path / "bench.json")
        loaded = json.loads(out.read_text())
        assert loaded["schema"] == SCHEMA
        assert len(loaded["workloads"]) == 5

    def test_baseline_always_included(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["sliced"],
                           corpus_blocks=4, serve=False, ghash=False,
                           cluster=False)
        backends = {row["backend"] for row in report["workloads"]}
        assert backends == {"baseline", "sliced"}

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backends"):
            run_bench(quick=True, backend_names=["warp"])

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError, match="multiples"):
            run_bench(quick=True, sizes=[100],
                      backend_names=["sliced"], corpus_blocks=4,
                      cluster=False)

    def test_render_is_textual(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, cluster=False)
        text = render_report(report)
        assert "software throughput" in text
        assert "baseline" in text
        assert "0 mismatch(es)" in text
        assert "serve:" in text and "req/s" in text


class TestServeScenario:
    def test_bench_records_loopback_service_rates(self):
        from repro.perf.bench import serve_scenario

        row = serve_scenario(quick=True, clients=2, requests=3,
                             payload_bytes=256)
        assert row["clients"] == 2
        assert row["requests_per_client"] == 3
        assert row["mode"] == "ctr"
        assert row["requests"] == 6
        assert row["errors"] == 0
        assert row["requests_per_s"] > 0
        assert row["seconds"] > 0
        # The latency-percentile section rides along.
        latency = row["latency"]
        assert latency is not None
        assert set(latency) == {"p50_s", "p95_s", "p99_s", "max_s"}
        assert 0 < latency["p50_s"] <= latency["p95_s"] \
            <= latency["p99_s"] <= latency["max_s"]

    def test_run_bench_embeds_serve_section(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, cluster=False)
        serve = report["serve"]
        assert serve is not None
        assert serve["errors"] == 0
        assert serve["requests"] == \
            serve["clients"] * serve["requests_per_client"]

    def test_serve_section_can_be_disabled(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, serve=False, cluster=False)
        assert report["serve"] is None
        text = render_report(report)
        assert "serve:" not in text


class TestHostFingerprint:
    def test_fields(self):
        host = host_fingerprint()
        assert set(host) >= {"platform", "machine", "python",
                             "cpu_count", "numpy"}


class TestProvenance:
    def test_report_carries_git_rev_and_obs(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, cluster=False)
        assert report["schema"] == SCHEMA
        assert isinstance(report["git_rev"], str)
        assert report["git_rev"]  # never empty: hash or "unknown"
        assert isinstance(report["obs"], dict)
        assert "repro_engine_ops_total" in report["obs"]

    def test_git_revision_in_a_repo_is_a_hash(self):
        from pathlib import Path

        from repro.perf.bench import git_revision

        rev = git_revision()
        root = Path(__file__).resolve().parents[2]
        if (root / ".git").exists():
            assert len(rev) == 40
            int(rev, 16)  # hex
        else:
            assert rev == "unknown"

    def test_git_revision_outside_a_repo_is_unknown(self, tmp_path):
        from repro.perf.bench import git_revision

        assert git_revision(root=tmp_path) == "unknown"


class TestLoadReport:
    def test_v2_round_trip(self, tmp_path):
        from repro.perf.bench import load_report

        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, cluster=False)
        out = write_report(report, tmp_path / "bench.json")
        loaded = load_report(out)
        assert loaded["schema"] == SCHEMA
        assert loaded["git_rev"] == report["git_rev"]

    def test_unknown_schema_rejected(self, tmp_path):
        from repro.perf.bench import load_report

        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match="unrecognized"):
            load_report(path)

    @pytest.mark.parametrize("version", range(1, 7))
    def test_older_schemas_rejected(self, tmp_path, version):
        from repro.perf.bench import load_report

        path = tmp_path / "old.json"
        path.write_text(json.dumps(
            {"schema": f"repro-aes/software-throughput/v{version}"}))
        with pytest.raises(ValueError, match="unrecognized"):
            load_report(path)

    def test_committed_trajectory_reads_and_renders(self):
        from pathlib import Path

        from repro.perf.bench import DEFAULT_OUT, load_report

        path = Path(__file__).resolve().parents[2] / DEFAULT_OUT
        report = load_report(path)
        assert "workers" not in report
        assert set(report["equivalence"]["backends"]) >= \
            {"baseline", "sliced"}
        assert "software throughput" in render_report(report)

class TestGhashSection:
    def test_cross_check_ghash_gate(self):
        from repro.perf.bench import cross_check_ghash

        from repro.aes.ghash import default_provider

        summary = cross_check_ghash()
        assert summary["ghash_mismatches"] == 0
        assert summary["ghash_cases"] > 0
        assert summary["ghash_providers"] == [default_provider().name]

    def test_cross_check_ghash_catches_a_wrong_digest(self, monkeypatch):
        from repro.aes.ghash import default_provider
        from repro.perf.bench import cross_check_ghash

        ghash = default_provider()
        monkeypatch.setattr(ghash, "digest", lambda h, parts: 1)
        with pytest.raises(BackendMismatch, match="diverges"):
            cross_check_ghash()

    def test_run_bench_embeds_ghash_section(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, cluster=False)
        section = report["ghash"]
        assert section is not None
        from repro.aes.ghash import default_provider
        name = default_provider().name
        assert section["providers"] == ["bitwise", name]
        assert {(r["provider"], r["kind"])
                for r in section["workloads"]} == {
            ("bitwise", "digest"), (name, "digest"), (name, "gcm")}
        for row in section["workloads"]:
            assert row["kind"] in {"digest", "gcm"}
            assert row["blocks_per_s"] >= 0
            assert row["measured_blocks"] <= row["blocks"]
        eq = report["equivalence"]
        assert eq["ghash_mismatches"] == 0
        assert eq["ghash_cases"] > 0
        # Bitwise is the denominator: its own speedup is exactly 1.
        bitwise = [r for r in section["workloads"]
                   if r["provider"] == "bitwise"]
        assert all(r["speedup_vs_bitwise"] == pytest.approx(1.0)
                   for r in bitwise)
        text = render_report(report)
        assert "ghash" in text
        assert "ghash equivalence" in text

    def test_ghash_section_can_be_disabled(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, ghash=False, cluster=False)
        assert report["ghash"] is None
        # The equivalence gate still runs even without timings.
        assert report["equivalence"]["ghash_mismatches"] == 0


class TestClusterScenario:
    def test_rows_and_speedup_vs_single(self):
        from repro.perf.bench import cluster_scenario

        section = cluster_scenario(quick=True, worker_counts=(1, 2),
                                   sessions=2, requests=3,
                                   payload_bytes=256)
        assert section["mode"] == "ctr"
        assert section["sessions"] == 2
        assert section["requests_per_session"] == 3
        rows = section["rows"]
        assert [row["workers"] for row in rows] == [1, 2]
        for row in rows:
            assert row["errors"] == 0
            assert row["requests"] == 6
            assert row["requests_per_s"] > 0
        assert rows[0]["speedup_vs_single"] == pytest.approx(1.0)
        assert rows[1]["speedup_vs_single"] is not None

    def test_rejects_bad_worker_counts(self):
        from repro.perf.bench import cluster_scenario

        with pytest.raises(ValueError, match="worker counts"):
            cluster_scenario(quick=True, worker_counts=(0,))

    def test_run_bench_embeds_and_renders_cluster_section(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, serve=False,
                           ghash=False)
        section = report["cluster"]
        assert section is not None
        assert [row["workers"] for row in section["rows"]] == [1, 2]
        assert all(row["errors"] == 0 for row in section["rows"])
        text = render_report(report)
        assert "cluster:" in text
        assert "worker(s):" in text
        assert "vs single" in text

    def test_cluster_section_can_be_disabled(self):
        report = run_bench(quick=True, sizes=[128], reps=1,
                           backend_names=["baseline"],
                           corpus_blocks=4, serve=False,
                           ghash=False, cluster=False)
        assert report["cluster"] is None
        assert "cluster:" not in render_report(report)
