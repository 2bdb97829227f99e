"""The fast trace-ingest path: same records, same typed errors, less work.

* ``read_jsonl`` decodes record lines in chunks; every error keeps the
  class, category and line number of a line-by-line decode (checked
  against a verbatim copy of the line-by-line reader kept below);
* a malformed blob payload ends in a typed :class:`TraceIngestError`;
* a store blob that does not digest to its name is a miss, and the
  re-ingest repairs it;
* ``repro run --store S`` lets the second policy on a trace load the
  stored blob with zero ingest pipelines;
* importing the store and the ingest pipeline leaves the HTTP stack
  unloaded.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.store import ResultStore
from repro.traces import ingest as ingest_mod
from repro.traces import schema
from repro.traces.ingest import (
    blob_payload,
    events_from_blob,
    ingest_path,
    load_workload,
)
from repro.traces.schema import (
    DEFAULT_ISIZE,
    RECORD_KINDS,
    BlockEvent,
    BranchRecord,
    TraceFormatError,
    TraceIngestError,
    TraceRecordError,
    TraceSchemaError,
    read_jsonl,
    validate_header,
    validate_record,
    write_jsonl,
)
from repro.traces.synthesize import synthesize

SRC = Path(__file__).resolve().parents[1] / "src"
HEADER = '{"schema": "repro-xtrace", "version": 1, "isize": 4}'


def read_jsonl_per_line(lines):
    """``read_jsonl`` as it was before chunked decoding, kept verbatim."""
    meta: Optional[Dict[str, object]] = None
    isize = DEFAULT_ISIZE
    records: List[BranchRecord] = []
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            if meta is None:
                raise TraceFormatError("first line is not JSON", lineno=lineno)
            raise TraceRecordError("line is not JSON", lineno=lineno)
        if meta is None:
            meta = validate_header(obj, lineno=lineno)
            isize = int(meta.get("isize", DEFAULT_ISIZE))  # type: ignore[arg-type]
            continue
        records.append(validate_record(obj, isize, lineno))
    if meta is None:
        raise TraceFormatError("empty input: no header line",
                               lineno=lineno or None)
    if not records:
        raise TraceSchemaError("trace has a header but no records",
                               category="empty-trace", lineno=lineno)
    return meta, records


def outcome(reader, lines) -> Tuple:
    """``("ok", meta, records)`` or ``("error", class, category, lineno)``."""
    try:
        meta, records = reader(lines)
    except TraceIngestError as exc:
        return ("error", type(exc), exc.category, exc.lineno)
    return ("ok", meta, [tuple(r) for r in records])


# ----------------------------------------------------------------------
# error parity of the chunked reader
# ----------------------------------------------------------------------
N_RECORDS = 2500  # > 2 decode chunks


def trace_lines() -> Tuple[List[str], List[int]]:
    """A valid trace with blank and comment lines interleaved.

    Returns the lines and the list index of every record line.
    """
    lines = ["# captured by a test", "", HEADER]
    record_at = []
    for i in range(N_RECORDS):
        if i % 97 == 0:
            lines.append("# comment %d" % i)
        if i % 89 == 0:
            lines.append("   ")
        pc = 0x1000 + 0x40 * (i % 50)
        if i % 3:
            rec = {"pc": pc, "taken": False, "kind": "cond"}
        else:
            rec = {"pc": pc, "taken": True, "target": 0x1000, "size": 4,
                   "kind": "direct"}
        record_at.append(len(lines))
        lines.append(json.dumps(rec))
    return lines, record_at


BAD_LINES = [
    # (id, line, class, category); class None: valid, slow path
    ("not-json", "not json at all", TraceRecordError, "malformed-record"),
    ("truncated-json", '{"pc": 4096, "taken": fal', TraceRecordError,
     "malformed-record"),
    ("not-a-dict", "[1, 2, 3]", TraceRecordError, "malformed-record"),
    ("pc-missing", '{"taken": false}', TraceRecordError, "bad-field-value"),
    ("pc-bool", '{"pc": true, "taken": false}', TraceRecordError,
     "bad-field-type"),
    ("pc-negative", '{"pc": -4, "taken": false}', TraceRecordError,
     "bad-field-value"),
    ("pc-hex", '{"pc": "0x1040", "taken": false}', None, None),
    ("taken-not-bool", '{"pc": 4096, "taken": 1}', TraceRecordError,
     "bad-field-type"),
    ("size-zero", '{"pc": 4096, "taken": false, "size": 0}',
     TraceRecordError, "bad-field-value"),
    ("unknown-kind", '{"pc": 4096, "taken": false, "kind": "jump"}',
     TraceRecordError, "bad-field-value"),
    ("no-target", '{"pc": 4096, "taken": true}', TraceRecordError,
     "missing-target"),
    ("null-target", '{"pc": 4096, "taken": true, "target": null}',
     TraceRecordError, "missing-target"),
]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("case_id,bad,cls,category", BAD_LINES,
                         ids=[case[0] for case in BAD_LINES])
def test_error_parity(case_id, bad, cls, category, where):
    lines, record_at = trace_lines()
    index = {"first": record_at[0], "middle": record_at[N_RECORDS // 2],
             "last": record_at[-1]}[where]
    lines[index] = bad
    got = outcome(read_jsonl, lines)
    assert got == outcome(read_jsonl_per_line, lines)
    if cls is None:
        assert got[0] == "ok"
        assert got[2][record_at.index(index)][0] == 0x1040
    else:
        assert got == ("error", cls, category, index + 1)


def test_values_spanning_lines_are_not_merged():
    # Joined with "\n,", these three invalid lines decode to three
    # dicts; the chunk must still be rejected at the first bad line.
    lines, record_at = trace_lines()
    at = record_at[10]
    lines[at] = '{"pc": 4096, "taken": false, "x": [{}'
    lines[at + 1] = '{}]}'
    lines[at + 2] = '{"pc": 1, "taken": false},{"pc": 2, "taken": false}'
    got = outcome(read_jsonl, lines)
    assert got == ("error", TraceRecordError, "malformed-record", at + 1)
    assert got == outcome(read_jsonl_per_line, lines)


def test_dict_members_spanning_lines_are_not_merged():
    lines, record_at = trace_lines()
    at = record_at[7]
    lines[at] = '{"pc": 4096'
    lines[at + 1] = '"taken": false}'
    lines[at + 2] = '{"pc": 1, "taken": false},{"pc": 2, "taken": false}'
    got = outcome(read_jsonl, lines)
    assert got == ("error", TraceRecordError, "malformed-record", at + 1)
    assert got == outcome(read_jsonl_per_line, lines)


def test_embedded_newline_in_a_line_is_an_error():
    # the embedded "\n,{" stands in for the separator the next line
    # (which does not start with "{") does not get
    lines = [HEADER, '{"pc": 1, "taken": false}\n,{"pc": 2',
             '"taken": false}']
    got = outcome(read_jsonl, lines)
    assert got == ("error", TraceRecordError, "malformed-record", 2)
    assert got == outcome(read_jsonl_per_line, lines)


def test_valid_trace_matches_line_by_line():
    lines, _ = trace_lines()
    assert outcome(read_jsonl, lines) == outcome(read_jsonl_per_line, lines)


records_st = st.builds(
    lambda pc, taken, target, size, kind: BranchRecord(
        pc=pc, taken=taken, target=target if taken else 0, size=size,
        kind=kind),
    st.integers(0, 2 ** 48), st.booleans(), st.integers(0, 2 ** 48),
    st.integers(1, 16), st.sampled_from(RECORD_KINDS))


@settings(max_examples=60, deadline=None)
@given(st.lists(records_st, min_size=1, max_size=40), st.integers(1, 8))
def test_write_then_read_round_trip(records, isize):
    buf = io.StringIO()
    write_jsonl(buf, records, meta={"isize": isize, "source": "prop"})
    with mock.patch.object(schema, "DECODE_CHUNK", 3):
        meta, back = read_jsonl(buf.getvalue().splitlines())
    assert back == records
    assert meta["isize"] == isize


LINE_POOL = [
    '{"pc": 64, "taken": false}',
    '{"pc": 128, "taken": true, "target": 64, "kind": "direct"}',
    '{"pc": "0x80", "taken": true, "target": "0x40"}',
    '{"pc": 64, "taken": false, "target": "junk"}',
    '{"pc": 64, "taken": false, "extra": [1, 2]}',
    '{"pc": 64, "taken": false, "x": [{}',
    '{}]}',
    '{"pc": 1, "taken": false},{"pc": 2, "taken": false}',
    '"taken": false}',
    '{"pc": 64',
    '{"pc": 64, "taken": true}',
    '{"pc": 64, "taken": 0}',
    '{"pc": 64, "taken": false, "size": 0}',
    '{"pc": 64, "taken": false, "kind": 3}',
    '{"pc": 64, "taken": false, "kind": ["cond"]}',
    "[1, 2]",
    "17",
    "not json",
    "# comment",
    "",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LINE_POOL), max_size=14),
       st.integers(1, 5))
def test_arbitrary_line_mixes_match_line_by_line(body, chunk):
    lines = [HEADER] + body
    with mock.patch.object(schema, "DECODE_CHUNK", chunk):
        got = outcome(read_jsonl, lines)
    assert got == outcome(read_jsonl_per_line, lines)


# ----------------------------------------------------------------------
# typed errors for bad blobs
# ----------------------------------------------------------------------
def good_payload():
    events = [BlockEvent(start=0x1000 + 0x40 * i, end=0x1020 + 0x40 * i,
                         size=4, taken=True, target=0, kind="direct")
              for i in range(4)]
    return blob_payload(events, 4)


def with_events(rows):
    payload = good_payload()
    payload["events"] = rows
    return payload


@pytest.mark.parametrize("payload,category", [
    (with_events([[1, 2, 4, 1]]), "malformed-record"),          # short row
    (with_events([[1, 2, 4, 1, 7]]), "malformed-record"),       # kind > 6
    (with_events([[1, 2, 4, 1, -1]]), "malformed-record"),      # kind < 0
    (with_events([[1, 2, 4, 2, 0]]), "malformed-record"),       # taken 2
    (with_events([[1, 2, 0, 1, 0]]), "malformed-record"),       # size 0
    (with_events([[5, 2, 4, 1, 0]]), "malformed-record"),       # end < start
    (with_events([["1", 2, 4, 1, 0]]), "malformed-record"),     # str start
    (with_events([7]), "malformed-record"),                     # not a row
    (with_events({"0": [1, 2, 4, 1, 0]}), "malformed-record"),  # not a list
    (with_events(None), "malformed-record"),
    (with_events([]), "empty-trace"),
    (dict(good_payload(), isize="four"), "bad-header-field"),
    (dict(good_payload(), isize=0), "bad-header-field"),
    (dict(good_payload(), isize=True), "bad-header-field"),
])
def test_malformed_blob_is_a_typed_error(payload, category):
    with pytest.raises(TraceIngestError) as exc:
        events_from_blob(payload)
    assert exc.value.category == category


def test_blob_without_events_is_a_typed_error():
    payload = good_payload()
    del payload["events"]
    with pytest.raises(TraceIngestError) as exc:
        events_from_blob(payload)
    assert exc.value.category == "malformed-record"


def test_synthesize_zero_events_is_a_typed_error():
    with pytest.raises(TraceIngestError) as exc:
        synthesize("empty", [], 4)
    assert exc.value.category == "empty-trace"


# ----------------------------------------------------------------------
# store blobs that do not digest to their name
# ----------------------------------------------------------------------
def write_trace(path: Path, n: int = 60) -> str:
    lines = [HEADER]
    pc = 0x1000
    for i in range(n):
        target = 0x1000 + ((i * 5) % 8) * 0x40
        lines.append(json.dumps({"pc": pc + 0x20, "taken": True,
                                 "target": target, "size": 4}))
        pc = target
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def ingested(tmp_path):
    path = write_trace(tmp_path / "t.jsonl")
    store = ResultStore(str(tmp_path / "store"))
    report = ingest_path(path, store=store, name="unit")
    blob = store._blob_path(report.digest)
    yield store, path, report.digest, blob
    store.close()


@pytest.mark.parametrize("damage", ["tamper", "truncate", "garbage"])
def test_bad_store_blob_is_a_miss_and_gets_repaired(ingested, damage):
    store, path, digest, blob = ingested
    good_bytes = blob.read_bytes()
    if damage == "tamper":  # valid JSON, wrong content
        payload = json.loads(good_bytes)
        payload["events"][0][2] += 4
        blob.write_text(json.dumps(payload, sort_keys=True))
    elif damage == "truncate":
        blob.write_bytes(good_bytes[: len(good_bytes) // 2])
    else:
        blob.write_bytes(b"\xff\xfe not a blob")
    assert store.get_trace(digest) is None
    runs = ingest_mod.PIPELINE_RUNS
    wl = load_workload("unit", digest, store=store, path=path)
    assert ingest_mod.PIPELINE_RUNS == runs + 1  # re-ingested
    assert wl.digest == digest
    assert blob.read_bytes() == good_bytes       # repaired in place
    assert store.get_trace(digest) is not None


def test_bad_store_blob_without_a_source_path_fails_typed(ingested):
    store, _path, digest, blob = ingested
    blob.write_text("{}")
    with pytest.raises(TraceIngestError):
        load_workload("unit", digest, store=store)


def test_store_blob_in_another_spelling_is_accepted(ingested):
    store, _path, digest, blob = ingested
    blob.write_text(json.dumps(json.loads(blob.read_text()), indent=2))
    runs = ingest_mod.PIPELINE_RUNS
    wl = load_workload("unit", digest, store=store)
    assert ingest_mod.PIPELINE_RUNS == runs
    assert wl.digest == digest


def test_write_blob_replaces_a_corrupt_file(tmp_path):
    with ResultStore(str(tmp_path / "store")) as store:
        payload = {"a": 1, "b": [1, 2, 3]}
        digest = store._write_blob(payload)
        path = store._blob_path(digest)
        good = path.read_text()
        path.write_text('{"a": 2}')
        assert store._write_blob(payload) == digest
        assert path.read_text() == good


# ----------------------------------------------------------------------
# --store serves trace blobs; the HTTP stack stays unloaded
# ----------------------------------------------------------------------
def child_env(tmp_path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_TRACE_REGISTRY"] = str(tmp_path / "no-registry.json")
    env["REPRO_NO_MANIFEST"] = "1"
    env.pop("REPRO_STORE", None)
    return env


SECOND_RUN = """
import sys
import repro.cli
import repro.traces.ingest as ingest
from repro.service.store import ResultStore

store = sys.argv[1]
assert repro.cli.main(["run", "trace-phase", "pdip_44", "--instructions",
                       "2000", "--warmup", "400", "--store", store]) == 0
assert ingest.PIPELINE_RUNS == 0, ingest.PIPELINE_RUNS
assert ResultStore(store).info()["traces"] == 1
print("zero ingest pipelines")
"""


def test_second_policy_on_a_trace_reuses_the_stored_blob(tmp_path):
    from repro.traces.registry import trace_benchmark_names

    if "trace-phase" not in trace_benchmark_names():
        pytest.skip("bundled traces unavailable in this checkout")
    env = child_env(tmp_path)
    store = str(tmp_path / "store")
    subprocess.run([sys.executable, "-m", "repro", "run", "trace-phase",
                    "baseline", "--instructions", "2000", "--warmup", "400",
                    "--store", store], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    out = subprocess.run([sys.executable, "-c", SECOND_RUN, store], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    assert "zero ingest pipelines" in out.stdout


def test_store_env_is_restored_after_a_command(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert main(["run", "noop", "baseline", "--instructions", "2000",
                 "--warmup", "400", "--store", str(tmp_path / "s")]) == 0
    assert "REPRO_STORE" not in os.environ


def test_store_import_leaves_the_http_stack_unloaded(tmp_path):
    probe = ("import sys, repro.service.store, repro.traces.ingest\n"
             "heavy = ('repro.service.server', 'repro.service.client',"
             " 'repro.service.cluster', 'asyncio', 'http.client')\n"
             "print(' '.join(m for m in heavy if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=child_env(tmp_path), check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == ""
