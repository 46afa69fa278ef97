"""Percentiles, span self times and the output check's bookkeeping."""

import collections
import hashlib
import json
import os
import re


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """(value, percentile) of the highest percentile up to p99 that still has
    at least ten samples beyond it - never below the median, which is all a
    sample of fewer than twenty supports."""
    q = min(99.0, max(50.0, 100.0 * (1 - 10.0 / len(values))))
    return percentile(values, q), q


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def ratio(num, den):
    """A ratio with its base: {"value", "num", "den"} (value 0 when den is 0)."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


# -- records written by perfbench_tool closed/open ---------------------------

Record = collections.namedtuple("Record", "index due sent received payload")


def read_records(path):
    out = []
    with open(path) as f:
        for line in f:
            i, due, sent, received, payload = line.rstrip("\n").split("\t", 4)
            out.append(Record(int(i), int(due), int(sent), int(received), payload))
    return out


_VOLATILE = re.compile(r'"line":\d+,"id":"[^"]*",|,"ms":[-0-9.e+]+')
_REQ_ID = re.compile(r'"id":"[^"]*",?')


def normalize_response(payload):
    """The payload minus the fields allowed to differ between repeats."""
    return _VOLATILE.sub("", payload)


def normalize_request(text):
    return _REQ_ID.sub("", text)


def ref_store_path(build_dir, workload, program):
    """Where the cross-run references of `workload` live for one built
    `program`: the file is named by the binary's digest, so byte identity
    across runs is required only between runs of the same code, and a
    changed program starts a fresh store."""
    digest = hashlib.sha1()
    with open(program, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return os.path.join(build_dir, f"refs-{workload}-{digest.hexdigest()[:16]}.json")


class RefStore:
    """Payload digests of every answered request, kept across runs of one
    built program (see ref_store_path), so a repeat of a request in a later
    run must be answered byte-identically (modulo `ms`) too."""

    LIMIT = 200000

    def __init__(self, path):
        self.path = path
        self.refs = {}
        if os.path.exists(path):
            with open(path) as f:
                self.refs = json.load(f)

    def check(self, request, payload):
        """False when an earlier run answered this request differently."""
        key = hashlib.sha1(normalize_request(request).encode()).hexdigest()
        digest = hashlib.sha1(normalize_response(payload).encode()).hexdigest()
        seen = self.refs.get(key)
        if seen is None and len(self.refs) < self.LIMIT:
            self.refs[key] = digest
        return seen is None or seen == digest

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.refs, f)
        os.replace(tmp, self.path)


# -- spans written by perfbench_tool trace-* ---------------------------------

Span = collections.namedtuple("Span", "request id parent name start end arg")


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            r, i, p, name, s, e, arg = line.rstrip("\n").split("\t")
            spans.append(Span(int(r), int(i), int(p), name, int(s), int(e), int(arg)))
    return spans


def self_times(spans):
    """{span id: self time in ns} - duration minus the time its direct
    children cover (children of one parent never overlap: the replay is
    single-threaded and spans nest)."""
    child_time = collections.Counter()
    for s in spans:
        if s.parent:
            child_time[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def span_summary(spans):
    """Per-name call durations (ns), per-name self-time totals, and the
    request-level accounting: total root time and root self time (the part
    of each traced request that no layer span covers)."""
    selfs = self_times(spans)
    durations = collections.defaultdict(list)
    self_total = collections.Counter()
    root_total = root_self = 0
    for s in spans:
        durations[s.name].append(s.end - s.start)
        self_total[s.name] += selfs[s.id]
        if s.parent == 0:
            root_total += s.end - s.start
            root_self += selfs[s.id]
    return durations, self_total, root_total, root_self
