"""Tests of the benchmark's own parts: generators, the output checker, the
open-loop timer, the span accounting and the build guard.

Run from the repository root (the checker tests build the tool first):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

from pb import build, gen, measure  # noqa: E402
from pb.workloads import frame, qor_stats  # noqa: E402

_RECORD = None


def record():
    """Builds (or reuses) the benchmark build of this checkout."""
    global _RECORD
    if _RECORD is None:
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            _RECORD = build.build(ROOT)
        finally:
            os.chdir(cwd)
    return _RECORD


def tool(*argv):
    return subprocess.run([record()["tool"], *map(str, argv)], capture_output=True,
                          text=True, check=False)


class GeneratorTest(unittest.TestCase):
    def test_compile_cold_is_seeded(self):
        self.assertEqual(gen.compile_cold(5, 20), gen.compile_cold(5, 20))
        self.assertNotEqual(gen.compile_cold(5, 20), gen.compile_cold(6, 20))

    def test_compile_cold_designs_are_unique(self):
        reqs = gen.compile_cold(5, 200)
        keys = {json.dumps(r, sort_keys=True) for r in reqs}
        self.assertEqual(len(keys), len(reqs))
        # The stated mix: COLD_STRATA random designs in every block.
        ten_blocks = reqs[:10 * gen.COLD_BLOCK]
        self.assertEqual(sum("random" in r for r in ten_blocks), 10 * gen.COLD_STRATA)

    def test_fds_keys_are_stratified_by_allocation(self):
        keys = list(gen._fds_keys(gen.random.Random(5)))
        allocs = [(k["alus"], k["muls"]) for k in keys]
        self.assertEqual(allocs, [(k["alus"], k["muls"])
                                  for k in gen._fds_keys(gen.random.Random(6))])
        n = len(gen.ALLOCS)
        self.assertEqual(set(allocs[:n]), set(gen.ALLOCS))

    def test_fds_mix_and_defect_probe_split_every_fds_key(self):
        key = lambda k: json.dumps(k, sort_keys=True)  # noqa: E731
        mix = {key(k) for k in gen._fds_keys(gen.random.Random(5))}
        defect = {key(gen._alloc({"bench": d, "mul_latency": lat, "backend": "fds"}, a))
                  for a, designs in gen.FDS_DEFECT.items()
                  for d, lats in designs.items() for lat in lats}
        self.assertEqual(len(mix) + len(defect), len(gen.FDS_NAMED) * len(gen.ALLOCS) * 4)
        self.assertFalse(mix & defect)
        probe = [key(k) for k in gen.fds_defect_probe()]
        self.assertLessEqual(set(probe), defect)
        self.assertEqual(len(probe), sum(len(d) for d in gen.FDS_DEFECT.values()))

    def test_catalog_and_hot_stream_are_seeded(self):
        self.assertEqual(gen.catalog(3), gen.catalog(3))
        self.assertNotEqual(gen.catalog(3), gen.catalog(4))
        entries = gen.catalog(3)
        a = gen.hot_stream(3, 0, 500, entries)
        self.assertEqual(a, gen.hot_stream(3, 0, 500, entries))
        self.assertNotEqual(a, gen.hot_stream(4, 0, 500, entries))
        self.assertNotEqual(a, gen.hot_stream(3, 1, 500, entries))

    def test_renumbered_uploads_are_seeded(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "in")

            def renumber(seed):
                with open(src, "w") as f:
                    f.write(f'{seed}\t{{"bench":"ewf","backend":"soft"}}\n')
                out = os.path.join(tmp, "out")
                self.assertEqual(tool("renumber", "--input", src, "--out", out).returncode, 0)
                with open(out) as f:
                    return json.loads(f.readline())

            self.assertEqual(renumber(7), renumber(7))
            self.assertNotEqual(renumber(7), renumber(8))


class CheckerTest(unittest.TestCase):
    # Vertex ids follow declaration order: a=0 e=1 f=2 b=3 c=4 d=5; e and f
    # are independent adds the list scheduler runs beside a on two ALUs.
    DESIGN = "dfg t\nop a add\nop e add\nop f add\nop b add a\nop c mul a b\nop d add c\n"
    REQUEST = {"id": "q", "dfg": DESIGN, "alus": 2, "muls": 1, "mems": 1, "backend": "list"}

    @classmethod
    def setUpClass(cls):
        done = subprocess.run([record()["cli"], "--serve-batch", "-"],
                              input=json.dumps(cls.REQUEST) + "\n", capture_output=True,
                              text=True, check=True)
        cls.response = json.loads(done.stdout.splitlines()[0])

    def judge(self, response, request=None):
        """(verdict, reason, serial length) of one answer; None is no answer."""
        text = "" if response is None else json.dumps(response)
        with tempfile.TemporaryDirectory() as tmp:
            src, out = os.path.join(tmp, "in"), os.path.join(tmp, "out")
            with open(src, "w") as f:
                f.write(f"0\t{json.dumps(request or self.REQUEST)}\t{text}\n")
            self.assertEqual(tool("check", "--input", src, "--out", out).returncode, 0)
            with open(out) as f:
                _, kind, serial, reason = f.readline().rstrip("\n").split("\t", 3)
                return kind, reason, int(serial)

    def verdict(self, response, request=None):
        return self.judge(response, request)[:2]

    def mutated(self, **changes):
        return dict(self.response, **changes)

    def test_accepts_the_real_answer(self):
        self.assertEqual(self.verdict(self.response), ("ok", ""))

    def test_rejects_start_before_predecessor_ends(self):
        # b consumes a: start b when a starts.
        start = list(self.response["start"])
        start[3] = start[0]
        kind, reason = self.verdict(self.mutated(start=start))
        self.assertEqual(kind, "wrong")
        self.assertIn("illegal schedule", reason)

    def test_rejects_oversubscribed_class(self):
        # The same answer judged against one ALU: the adds overlap.
        kind, reason = self.verdict(self.response, dict(self.REQUEST, alus=1))
        self.assertEqual(kind, "wrong")
        self.assertIn("illegal schedule", reason)

    def test_rejects_wrong_latency(self):
        kind, reason = self.verdict(self.mutated(latency=self.response["latency"] + 1))
        self.assertEqual(kind, "wrong")
        self.assertIn("makespan", reason)

    def test_rejects_spurious_infeasible(self):
        answer = {k: v for k, v in self.response.items()
                  if k not in ("latency", "start", "unit", "stats")}
        answer.update(feasible=False, infeasible_reason="no schedule")
        self.assertEqual(self.verdict(answer), ("fail", "spurious infeasible"))
        # ...but accepts it when the design needs a class with zero units.
        self.assertEqual(self.verdict(answer, dict(self.REQUEST, muls=0)), ("ok", ""))

    def test_error_and_missing_answers_fail(self):
        self.assertEqual(self.verdict({"line": 1, "id": "q", "error": "overloaded"})[0], "fail")
        self.assertEqual(self.verdict(None), ("fail", "unanswered"))

    def test_reports_serial_length_of_the_design(self):
        # Five one-cycle adds and one multiplier op, one after another.
        serial = self.judge(self.response)[2]
        mul = serial - 5
        self.assertGreaterEqual(mul, 1)
        self.assertGreaterEqual(serial, self.response["latency"])
        # The same length is charged for a missing answer.
        self.assertEqual(self.judge(None)[2], serial)
        slower = dict(self.REQUEST, mul_latency=mul + 2)
        self.assertEqual(self.judge(None, slower)[2], serial + 2)


class QorTest(unittest.TestCase):
    def test_lost_answers_are_charged_their_serial_length(self):
        ok = ("ok", "", 40)
        answers = [(ok, {"feasible": True, "latency": 12, "backend": "list"}),
                   (("fail", "spurious infeasible", 30), None),
                   (("fail", "unanswered", 25), None)]
        qor, feasible, _ = qor_stats(answers)
        self.assertEqual((qor, feasible), (12 + 30 + 25, 1))
        # Answering the first infeasibly instead never lowers the total.
        worse = [(("fail", "spurious infeasible", 40), None)] + answers[1:]
        self.assertGreater(qor_stats(worse)[0], qor)

    def test_soft_counters_come_from_feasible_soft_answers(self):
        stats = {k: 2 for k in ("select_calls", "positions_scanned", "commits",
                                "nodes_relabeled", "closure_rows_touched")}
        answers = [(("ok", "", 9), {"feasible": True, "latency": 5, "backend": "soft",
                                    "stats": stats}),
                   (("ok", "", 9), {"feasible": True, "latency": 5, "backend": "list"})]
        self.assertEqual(qor_stats(answers)[2]["select_calls"], 2)


class RefStoreTest(unittest.TestCase):
    def test_a_changed_program_starts_a_fresh_store(self):
        with tempfile.TemporaryDirectory() as tmp:
            prog = os.path.join(tmp, "prog")

            def store_for(binary):
                with open(prog, "wb") as f:
                    f.write(binary)
                return measure.RefStore(measure.ref_store_path(tmp, "w", prog))

            first = store_for(b"one build")
            self.assertTrue(first.check('{"id":"a","bench":"hal"}', '{"latency":7}'))
            first.save()
            # The same program: a repeat must match the earlier answer.
            same = store_for(b"one build")
            self.assertFalse(same.check('{"id":"b","bench":"hal"}', '{"latency":6}'))
            self.assertTrue(same.check('{"id":"b","bench":"hal"}', '{"latency":7}'))
            # Another program may answer differently.
            self.assertTrue(store_for(b"another build").check('{"id":"c","bench":"hal"}',
                                                               '{"latency":6}'))


class _StallingServer(threading.Thread):
    """Answers every frame at once, except that it stops reading and
    answering for `stall_s` when the `stall_at`-th request arrives."""

    def __init__(self, path, stall_at, stall_s):
        super().__init__(daemon=True)
        self.listener = socket.socket(socket.AF_UNIX)
        self.listener.bind(path)
        self.listener.listen(1)
        self.stall_at, self.stall_s = stall_at, stall_s

    def run(self):
        conn, _ = self.listener.accept()
        reader = conn.makefile("rb")
        line = 0
        while True:
            length = reader.readline()
            if not length:
                break
            reader.read(int(length) + 1)
            line += 1
            if line == self.stall_at:
                time.sleep(self.stall_s)
            answer = json.dumps({"line": line, "id": str(line)}, separators=(",", ":"))
            conn.sendall(frame(answer))
        conn.close()
        self.listener.close()


class OpenLoopTimerTest(unittest.TestCase):
    def test_stall_counts_against_requests_queued_behind_it(self):
        rate, count, stall_at, stall_s = 200.0, 60, 10, 0.4
        with tempfile.TemporaryDirectory() as tmp:
            sock = os.path.join(tmp, "s")
            server = _StallingServer(sock, stall_at, stall_s)
            server.start()
            reqs = os.path.join(tmp, "reqs")
            with open(reqs, "w") as f:
                for i in range(count):  # big frames: the stalled socket fills up
                    f.write(json.dumps({"id": str(i), "pad": "x" * 200000}) + "\n")
            out = os.path.join(tmp, "rec")
            done = tool("open", "--socket", sock, "--requests", reqs, "--rate", rate,
                        "--conns", 1, "--grace-ms", 3000, "--out", out)
            self.assertEqual(done.returncode, 0, done.stderr)
            server.join(5)
            records = measure.read_records(out)
        self.assertEqual(len(records), count)
        period_ms = 1000.0 / rate
        stalled = records[stall_at - 1]  # the request whose arrival stalled the server
        stall_end_ms = (stalled.due / 1e6) + stall_s * 1000.0
        lagged = 0
        for r in records[stall_at:]:
            due_ms = r.due / 1e6
            if due_ms >= stall_end_ms - 5 * period_ms:
                break
            latency = (r.received - r.due) / 1e6
            # Timed from its due time, a request queued behind the stall waits
            # at least until the stall ends...
            self.assertGreaterEqual(latency, stall_end_ms - due_ms - 20.0)
            # ...including the time the sender itself was held up.
            self.assertGreaterEqual(latency, (r.sent - r.due) / 1e6)
            lagged += (r.sent - r.due) / 1e6 > 50.0
        self.assertGreater(lagged, 0, "the sender never blocked: frames too small")


class PeakRssTest(unittest.TestCase):
    def test_reports_the_program_not_its_launcher(self):
        ballast = b"x" * (64 << 20)  # a large parent, as run.py is after many runs
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "rss")
            self.assertEqual(tool("peak-rss", out, "true").returncode, 0)
            with open(out) as f:
                self.assertLess(int(f.read()), 32 << 10)  # KiB
            grow = "b = b'y' * (48 << 20)"
            self.assertEqual(tool("peak-rss", out, sys.executable, "-c", grow).returncode, 0)
            with open(out) as f:
                self.assertGreater(int(f.read()), 48 << 10)
            self.assertEqual(tool("peak-rss", out, "sh", "-c", "exit 3").returncode, 3)
        del ballast


class SpanAccountingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [measure.Span(0, 1, 0, "request", 0, 100, -1),
                 measure.Span(0, 2, 1, "serve.parse", 10, 30, -1),
                 measure.Span(0, 3, 1, "sched.run.soft", 30, 90, -1),
                 measure.Span(0, 4, 3, "core.kernel", 40, 80, -1)]
        selfs = measure.self_times(spans)
        self.assertEqual(selfs, {1: 20, 2: 20, 3: 20, 4: 40})
        _, _, root_total, root_self = measure.span_summary(spans)
        self.assertEqual((root_total, root_self), (100, 20))
        self.assertEqual(sum(selfs.values()), 100)  # self times cover the request


class BuildGuardTest(unittest.TestCase):
    def base(self, flags):
        return {"build_type": "Release", "core_options": "-Wall;-Wextra",
                "effective_flags": {"softsched_core.dir": flags}}

    def test_refuses_instrumented_or_unoptimized_builds(self):
        for flags in ("-O3 -DNDEBUG -fsanitize=address", "-O0 -g -DNDEBUG",
                      "-O3 -DNDEBUG --coverage", "-g", "-O2"):
            with self.assertRaises(build.BuildRefused, msg=flags):
                build.guard(self.base(flags))
        with self.assertRaises(build.BuildRefused):
            build.guard(dict(self.base("-O3 -DNDEBUG"), build_type="Debug"))

    def test_accepts_this_build(self):
        build.guard(record())


if __name__ == "__main__":
    unittest.main()
