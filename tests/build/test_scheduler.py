"""The batch scheduler: determinism, parallel safety, crash containment."""

import itertools

import pytest

from repro.build import (
    BatchJob,
    batch_to_csv,
    catalog_matrix,
    clear_manifest_memo,
    render_batch_table,
    render_cache_summary,
    run_batch,
    write_batch_csv,
)
from repro.models.catalog import CATALOG

SMALL = ("microwave", "checksum")


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_manifest_memo()
    yield
    clear_manifest_memo()


class TestMatrix:
    def test_matrix_covers_baseline_each_class_and_all_hw(self):
        matrix = catalog_matrix(("microwave",))
        variants = [job.variant for job in matrix]
        assert variants == ["sw-only", "hw=MO", "hw=PT", "hw-all"]

    def test_unknown_model_raises_with_catalog(self):
        with pytest.raises(KeyError, match="microwave"):
            catalog_matrix(("nope",))

    def test_matrix_equals_checked_models_for_every_subset(self):
        """The matrix reads unchecked models; its job list is the one
        read from checked models, for every subset of the catalog."""
        def checked_matrix(models):
            jobs = []
            for entry in CATALOG:
                if models and entry.name not in models:
                    continue
                keys = tuple(sorted(entry.build().components[0].class_keys))
                jobs.append(BatchJob(entry.name, "sw-only", ()))
                jobs.extend(BatchJob(entry.name, f"hw={key}", (key,))
                            for key in keys)
                jobs.append(BatchJob(entry.name, "hw-all", keys))
            return jobs

        names = [entry.name for entry in CATALOG]
        subsets = [None, ()] + [
            subset for size in range(1, len(names) + 1)
            for subset in itertools.combinations(names, size)]
        subsets.append(tuple(reversed(names)))   # order does not matter
        for subset in subsets:
            assert catalog_matrix(subset) == checked_matrix(subset), subset
        assert len(catalog_matrix()) == 25

    def test_full_matrix_spans_catalog(self):
        matrix = catalog_matrix()
        assert {job.model for job in matrix} >= {
            "microwave", "trafficlight", "packetproc", "elevator",
            "checksum"}


class TestRunBatch:
    def test_inline_batch_is_deterministic(self, tmp_path):
        matrix = catalog_matrix(SMALL)
        report = run_batch(matrix, jobs=1, cache_dir=str(tmp_path))
        assert [r.job for r in report.results] == matrix
        assert not report.failed

    def test_parallel_results_in_matrix_order_with_same_digests(
            self, tmp_path):
        matrix = catalog_matrix(SMALL)
        inline = run_batch(matrix, jobs=1, cache_dir=str(tmp_path / "a"))
        parallel = run_batch(matrix, jobs=3,
                             cache_dir=str(tmp_path / "b"))
        assert [r.job for r in parallel.results] == matrix
        assert [r.digest for r in parallel.results] == \
            [r.digest for r in inline.results]

    def test_second_run_is_fully_cached(self, tmp_path):
        matrix = catalog_matrix(("microwave",))
        run_batch(matrix, jobs=1, cache_dir=str(tmp_path))
        again = run_batch(matrix, jobs=1, cache_dir=str(tmp_path))
        assert again.hit_rate >= 0.9
        assert again.classes_compiled == 0

    def test_no_cache_runs_without_a_store(self, tmp_path):
        matrix = catalog_matrix(("checksum",))
        report = run_batch(matrix, jobs=1)
        assert not report.failed
        assert report.store.lookups == 0

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_batch([], jobs=0)

    def test_failing_job_contained_not_fatal(self, tmp_path):
        matrix = [BatchJob("microwave", "sw-only", ()),
                  BatchJob("ghost-model", "sw-only", ())]
        report = run_batch(matrix, jobs=1, cache_dir=str(tmp_path))
        assert report.results[0].ok
        assert not report.results[1].ok
        assert "ghost-model" in report.results[1].error


class TestCrashContainment:
    def test_worker_crash_fails_one_job_not_the_batch(
            self, tmp_path, monkeypatch):
        matrix = catalog_matrix(SMALL)
        poisoned = matrix[2]
        monkeypatch.setenv("REPRO_BUILD_CRASH", poisoned.label)
        report = run_batch(matrix, jobs=2, cache_dir=str(tmp_path))
        assert report.worker_failures >= 1
        assert [r.job for r in report.results] == matrix
        failed = report.failed
        assert [r.job for r in failed] == [poisoned]
        assert "crashed" in failed[0].error
        # every innocent job recovered
        assert all(r.ok for r in report.results if r.job != poisoned)


class TestReporting:
    def test_table_summary_and_csv_agree(self, tmp_path):
        matrix = catalog_matrix(("checksum",))
        report = run_batch(matrix, jobs=1, cache_dir=str(tmp_path))
        table = render_batch_table(report)
        assert "checksum" in table and "sw-only" in table
        summary = render_cache_summary(report)
        assert "hit rate" in summary and "worker crash" in summary
        csv_text = batch_to_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("model,variant,ok")
        assert len(lines) == len(matrix) + 1

    def test_csv_written_to_disk(self, tmp_path):
        matrix = catalog_matrix(("checksum",))
        report = run_batch(matrix, jobs=1, cache_dir=str(tmp_path / "c"))
        path = write_batch_csv(report, tmp_path / "batch.csv")
        assert (tmp_path / "batch.csv").read_text() == batch_to_csv(report)
        assert path.endswith("batch.csv")
