"""perf script ingestion tests (repro/ingest/perf.py + PerfLbrSpec).

The fixtures under tests/fixtures/perf/ are committed `perf script`
captures: clean (one pid/event), interleaved (two pids, two events),
truncated (file ends mid-entry), garbage (junk lines mixed in).
Determinism tests pin ingest output *bytes* and spec content keys
across repeated runs, fresh processes, and --chunk-len settings.
"""

import hashlib
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.ingest import PerfParser, ingest_perf, parse_perf_trace
from repro.ingest import perf as perf_module
from repro.trace.io import TraceReader
from repro.trace.stream import concat
from repro.workload_spec import PerfLbrSpec

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "perf"
CLEAN = FIXTURES / "clean.txt"
INTERLEAVED = FIXTURES / "interleaved.txt"
TRUNCATED = FIXTURES / "truncated.txt"
GARBAGE = FIXTURES / "garbage.txt"
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: One brstack entry, as the fixtures print them.
ENTRY_RE = re.compile(r"0x([0-9a-f]+)/0x[0-9a-f]+/([A-Z]+)/")


def oracle_records(path, *, pid=None, event=None):
    """Reference parse of a fixture via an independent regex pass."""
    records = []
    for line in path.read_text(errors="replace").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tokens = line.split()
        if pid is not None and (len(tokens) < 2 or tokens[1] != str(pid)):
            continue
        if event is not None and not any(
            t.startswith(event) and t.endswith(":") for t in tokens
        ):
            continue
        for pc, flags in ENTRY_RE.findall(line):
            records.append((int(pc, 16), 0 if "N" in flags else 1))
    return records


class TestParser:
    def test_clean_parses_every_line_and_entry(self):
        trace, report = parse_perf_trace(CLEAN)
        expected = oracle_records(CLEAN)
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == expected
        assert report.lines == 40
        assert report.matched_lines == 40
        assert report.skipped_lines == 0
        assert report.skipped_entries == 0
        assert report.filtered_lines == 0
        assert report.records == len(expected) > 80

    def test_not_taken_flag_maps_to_outcome_zero(self):
        trace, _ = parse_perf_trace(CLEAN)
        expected = oracle_records(CLEAN)
        not_taken = sum(1 for _, taken in expected if taken == 0)
        assert int((trace.outcomes == 0).sum()) == not_taken > 0

    def test_pid_filter_partitions_interleaved(self):
        _, everything = parse_perf_trace(INTERLEAVED)
        trace_a, report_a = parse_perf_trace(INTERLEAVED, pid=1111)
        trace_b, report_b = parse_perf_trace(INTERLEAVED, pid=2222)
        assert report_a.records + report_b.records == everything.records
        assert report_a.filtered_lines == report_b.matched_lines
        assert list(zip(trace_a.pcs.tolist(), trace_a.outcomes.tolist())) == (
            oracle_records(INTERLEAVED, pid=1111)
        )
        assert len(trace_b) == report_b.records > 0

    def test_event_filter_partitions_interleaved(self):
        _, everything = parse_perf_trace(INTERLEAVED)
        _, branches = parse_perf_trace(INTERLEAVED, event="branches")
        _, cycles = parse_perf_trace(INTERLEAVED, event="cycles")
        assert branches.records + cycles.records == everything.records
        assert branches.records > 0 and cycles.records > 0
        assert branches.reasons.get("event-filtered", 0) == cycles.matched_lines

    def test_event_filter_matches_modifier_suffix(self):
        # --event branches must accept the fixture's `branches:u`.
        _, bare = parse_perf_trace(CLEAN, event="branches")
        _, qualified = parse_perf_trace(CLEAN, event="branches:u")
        assert bare.records == qualified.records > 0
        _, nothing = parse_perf_trace(CLEAN, event="cache-misses")
        assert nothing.records == 0
        assert nothing.filtered_lines == nothing.lines

    def test_truncated_final_line_is_counted_not_fatal(self):
        trace, report = parse_perf_trace(TRUNCATED)
        # The 12 whole lines parse; the torn tail is accounted for.
        assert report.lines == 13
        assert report.matched_lines >= 12
        assert report.records >= len(oracle_records(TRUNCATED)) - 4
        assert report.skipped_entries >= 1
        assert len(trace) == report.records

    def test_garbage_lines_are_skipped_with_reasons(self):
        trace, report = parse_perf_trace(GARBAGE)
        assert report.skipped_lines >= 4
        assert report.matched_lines == report.lines - report.skipped_lines > 0
        assert sum(report.reasons.values()) >= report.skipped_lines
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == (
            oracle_records(GARBAGE)
        )

    @pytest.mark.parametrize("path", [CLEAN, INTERLEAVED, TRUNCATED, GARBAGE])
    def test_line_accounting_invariant(self, path):
        for kwargs in ({}, {"pid": 1111}, {"event": "branches"}):
            _, report = parse_perf_trace(path, **kwargs)
            assert (
                report.matched_lines + report.filtered_lines + report.skipped_lines
                == report.lines
            ), (path.name, kwargs)

    def test_arrow_fallback_format(self, tmp_path):
        src = tmp_path / "plain.txt"
        src.write_text(
            "prog  42 [000] 1.0: 1 branches: 401000 => 401040\n"
            "prog  42 [000] 1.1: 1 branches: 401040 => 0\n"
            "prog  42 [000] 1.2: 1 branches: 401000 => 0x401080\n"
            "prog  42 [000] 1.3: 1 branches: => 401000\n"  # malformed
        )
        trace, report = parse_perf_trace(src)
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == [
            (0x401000, 1),
            (0x401040, 0),  # target 0: not-taken at FROM
            (0x401000, 1),
        ]
        assert report.skipped_entries == 1

    def test_cond_only_drops_typed_non_conditionals(self, tmp_path):
        src = tmp_path / "typed.txt"
        src.write_text(
            "p 1 [0] 1.0: 1 branches: "
            "0x10/0x20/P/-/-/0/COND/- 0x14/0x24/P/-/-/0/UNCOND/- 0x18/0x28/P\n"
        )
        _, plain = parse_perf_trace(src)
        trace, cond = parse_perf_trace(src, cond_only=True)
        assert plain.records == 3
        assert cond.records == 2  # untyped entries are kept
        assert cond.non_cond_entries == 1
        assert trace.pcs.tolist() == [0x10, 0x18]

    def test_parser_pass_is_restartable(self):
        parser = PerfParser(CLEAN)
        first = concat(list(parser.chunks(64)))
        fingerprint = parser.report.sha256
        second = concat(list(parser.chunks(8)))
        assert first == second
        assert parser.report.sha256 == fingerprint

    def test_missing_file_raises_trace_error(self):
        with pytest.raises(TraceError):
            parse_perf_trace("/nonexistent/perf.txt")

    def test_newline_free_input_is_bounded(self, tmp_path):
        # A binary file passed by mistake: megabytes without a newline.
        junk = bytes(b for b in range(256) if b != 0x0A) * (8 * 4096)
        src = tmp_path / "perf.data"
        src.write_bytes(junk + b"\n" + CLEAN.read_bytes().splitlines()[1] + b"\n")
        tracemalloc.start()
        try:
            trace, report = parse_perf_trace(src)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(junk) // 2  # O(block), not O(input)
        assert report.records == len(trace) == 3
        assert report.reasons == {"line-too-long": 1}
        assert report.lines == 2 and report.skipped_lines == 1
        assert report.sha256 == hashlib.sha256(src.read_bytes()).hexdigest()

    @pytest.mark.parametrize("block", [7, 4096, 1 << 20])
    def test_over_long_line_skip_ignores_block_boundaries(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(perf_module, "_READ_BLOCK", block)
        good = CLEAN.read_bytes().splitlines()[1]
        long_line = b"x" * (perf_module._MAX_LINE + 1)
        edge = b"y" * perf_module._MAX_LINE  # at the cap: parsed, skipped as garbage
        src = tmp_path / "mixed.txt"
        src.write_bytes(b"\n".join([good, long_line, edge, good, long_line]))
        trace, report = parse_perf_trace(src)
        assert len(trace) == 6
        assert report.reasons == {"line-too-long": 2, "no-branch-payload": 1}
        assert report.lines == 5


class TestIngest:
    def test_ingest_matches_in_memory_parse(self, tmp_path):
        out = tmp_path / "clean.rbt"
        report = ingest_perf(CLEAN, out, chunk_len=64)
        trace, parse_report = parse_perf_trace(CLEAN)
        with TraceReader(out) as reader:
            assert len(reader) == report.records == len(trace)
            loaded = concat(list(reader))
            assert loaded.pcs.tolist() == trace.pcs.tolist()
            assert loaded.outcomes.tolist() == trace.outcomes.tolist()
        assert report.sha256 == parse_report.sha256

    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.rbt", tmp_path / "b.rbt"
        ingest_perf(CLEAN, a, chunk_len=64, compress=True)
        ingest_perf(CLEAN, b, chunk_len=64, compress=True)
        assert a.read_bytes() == b.read_bytes()

    def test_fingerprint_identical_across_chunk_len(self, tmp_path):
        fingerprints = set()
        for chunk_len in (8, 64, 1 << 20):
            out = tmp_path / f"c{chunk_len}.rbt"
            ingest_perf(CLEAN, out, chunk_len=chunk_len)
            with TraceReader(out) as reader:
                fingerprints.add(reader.fingerprint)
        assert len(fingerprints) == 1

    def test_ingest_bytes_identical_in_fresh_process(self, tmp_path):
        local = tmp_path / "local.rbt"
        ingest_perf(CLEAN, local, chunk_len=64, compress=True)
        remote = tmp_path / "remote.rbt"
        script = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.ingest import ingest_perf\n"
            f"ingest_perf({str(CLEAN)!r}, {str(remote)!r}, chunk_len=64, compress=True)\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert remote.read_bytes() == local.read_bytes()

    def test_source_sha256_is_the_file_fingerprint(self, tmp_path):
        out = tmp_path / "o.rbt"
        report = ingest_perf(CLEAN, out)
        assert report.sha256 == hashlib.sha256(CLEAN.read_bytes()).hexdigest()

    def test_no_records_fails_loudly_and_cleans_up(self, tmp_path):
        src = tmp_path / "not-perf.txt"
        src.write_text("this is not perf output\nnor is this\n")
        out = tmp_path / "out.rbt"
        with pytest.raises(TraceError, match="no branch records"):
            ingest_perf(src, out)
        assert not out.exists()


class TestPerfLbrSpec:
    def test_content_key_covers_source_and_filters(self):
        base = PerfLbrSpec(path=str(INTERLEAVED))
        keys = {
            base.content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), pid=1111).content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), event="branches").content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), cond_only=True).content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), alias="other").content_key(),
            PerfLbrSpec(path=str(CLEAN)).content_key(),
        }
        assert len(keys) == 6

    def test_content_key_stable_in_fresh_process(self):
        spec = PerfLbrSpec.of(str(CLEAN), event="branches")
        script = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.workload_spec import workload_spec_from_json\n"
            f"print(workload_spec_from_json({spec.to_json()!r}).content_key())\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == spec.content_key()

    def test_key_ignores_path_location(self, tmp_path):
        copy = tmp_path / "renamed-dir" / "clean.txt"
        copy.parent.mkdir()
        copy.write_bytes(CLEAN.read_bytes())
        assert (
            PerfLbrSpec(path=str(copy)).content_key()
            == PerfLbrSpec(path=str(CLEAN)).content_key()
        )

    def test_materialize_applies_filters_and_label(self):
        spec = PerfLbrSpec(path=str(INTERLEAVED), pid=2222, alias="workerB")
        trace = spec.materialize()
        assert trace.name == "workerB"
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == (
            oracle_records(INTERLEAVED, pid=2222)
        )

    def test_pin_mismatch_fails(self, tmp_path):
        copy = tmp_path / "clean.txt"
        copy.write_bytes(CLEAN.read_bytes())
        spec = PerfLbrSpec.of(str(copy))
        spec.materialize()  # pin matches
        copy.write_bytes(CLEAN.read_bytes() + b"tampered\n")
        with pytest.raises(TraceError, match="changed"):
            spec.materialize()

    def test_empty_result_after_filters_fails(self):
        spec = PerfLbrSpec(path=str(CLEAN), pid=999999)
        with pytest.raises(TraceError, match="no branch records"):
            spec.materialize()
