#!/usr/bin/env python3
"""CLI contract check for acolay_serve (docs/SERVING.md).

Three layers of pinning, so the daemon's command line cannot drift out
from under its documentation again (the --max-incremental-sessions flag
was documented and silently ignored for two releases):

1. **Doc drift**: the flag set printed by `--help` must equal the flag
   set documented in docs/SERVING.md's "CLI flags" table, both ways.
2. **Parse contract**: every flag is exercised with an accepting value
   (exit 0) and every parse-failure class is exercised per flag —
   missing value, bad value, out of range, unknown flag, conflicting
   transports — expecting exit 2 and the specific diagnostic naming the
   flag, never a misleading "bad argument".
3. **Behaviour**: --max-incremental-sessions actually caps the live
   delta-session count (a chain against an evicted session is rejected
   `unknown_fingerprint` at cap 1 and succeeds at cap 4), the socket
   flags actually start a daemon that drains to exit 0 on SIGTERM, and
   the pipe shares that lifecycle: SIGTERM before end-of-input answers
   an in-order prefix of the frames and exits 0, and --stats-every
   prints on the pipe too. The pipe answers every line it reads (an
   oversized one `rejected`, a last one without its newline), never
   sheds a lone writer's burst as `overloaded`, and exits 1 when stdout
   fails.

Runs as the `serving.cli_contract` ctest case and inside the
`serving-smoke` CI job.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

FAILURES: list[str] = []


def check(ok: bool, label: str, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"{status:4} {label}")
    if not ok:
        if detail:
            print(f"     {detail}")
        FAILURES.append(label)


def run(binary: str, argv: list[str], stdin: bytes = b"",
        timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run([binary, *argv], input=stdin,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout)


# --- layer 1: help <-> docs drift ------------------------------------------

def flags_from_help(binary: str) -> set[str]:
    proc = run(binary, ["--help"])
    check(proc.returncode == 0, "--help exits 0",
          f"exit {proc.returncode}")
    text = proc.stdout.decode()
    return set(re.findall(r"(?m)^\s+(--[a-z][a-z-]*)", text))


def flags_from_doc(doc: pathlib.Path) -> set[str]:
    """Flags named in the CLI flags table of docs/SERVING.md."""
    text = doc.read_text()
    match = re.search(r"### CLI flags\n(.*?)(?=\n#|\Z)", text, re.S)
    if match is None:
        check(False, "docs/SERVING.md has a '### CLI flags' section")
        return set()
    rows = [ln for ln in match.group(1).splitlines() if ln.startswith("|")]
    return {flag for row in rows
            for flag in re.findall(r"`(--[a-z][a-z-]*)", row)}


# --- layer 2: accept / reject matrix ---------------------------------------

# Flags that take a value, with a value the parser must accept. The
# socket transports are exercised separately (they block).
VALUE_FLAGS = {
    "--threads": "2",
    "--queue-depth": "8",
    "--max-inflight": "2",
    "--cache": "4",
    "--max-incremental-sessions": "4",
    "--cycle-policy": "greedy_reverse",
    "--drain-timeout": "1.5",
    "--stats-every": "2",
    "--listen": "0",
    "--unix": "cli_check.sock",
}
BARE_FLAGS = ["--timing", "--no-dedup", "--no-warm", "--stats"]
SOCKET_FLAGS = {"--listen", "--unix"}


def expect_accept(binary: str, argv: list[str]) -> None:
    proc = run(binary, argv, stdin=b"")
    check(proc.returncode == 0, f"accepts {' '.join(argv)}",
          f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")


def expect_reject(binary: str, argv: list[str], needle: str) -> None:
    proc = run(binary, argv, stdin=b"")
    stderr = proc.stderr.decode(errors="replace")
    label = f"rejects {' '.join(argv) or '(nothing)'} [{needle}]"
    if proc.returncode != 2:
        check(False, label, f"exit {proc.returncode}, wanted 2")
    else:
        check(needle in stderr, label,
              f"stderr lacks {needle!r}: {stderr.splitlines()[:1]}")


def check_parse_matrix(binary: str, help_flags: set[str]) -> None:
    # Every value flag accepts its documented shape (socket flags are
    # covered by check_socket_lifecycle; running them here would block).
    for flag, value in VALUE_FLAGS.items():
        if flag not in SOCKET_FLAGS:
            expect_accept(binary, [flag, value])
    for flag in BARE_FLAGS:
        expect_accept(binary, [flag])
    expect_accept(binary, [f for fv in VALUE_FLAGS.items()
                           if fv[0] not in SOCKET_FLAGS for f in fv]
                  + BARE_FLAGS)

    # A value flag as the last argv word is "missing value", naming the
    # flag — not a silent default and not "bad argument".
    for flag in VALUE_FLAGS:
        expect_reject(binary, [flag], f"missing value for '{flag}'")

    # Unparseable and empty operands are "bad value", naming both.
    for flag in VALUE_FLAGS:
        if flag == "--unix":
            continue  # any non-empty path parses
        expect_reject(binary, [flag, "abc"], f"bad value 'abc' for '{flag}'")
        expect_reject(binary, [flag, ""], f"bad value '' for '{flag}'")
    expect_reject(binary, ["--unix", ""], "bad value '' for '--unix'")
    expect_reject(binary, ["--threads", "-1"], "bad value")
    expect_reject(binary, ["--drain-timeout", "-0.5"], "bad value")
    expect_reject(binary, ["--drain-timeout", "inf"], "bad value")

    # Parseable but unusable is "out of range", with the limit.
    expect_reject(binary, ["--threads", "99999999999"],
                  "out of range for '--threads' (max 2147483647)")
    expect_reject(binary, ["--listen", "65536"],
                  "out of range for '--listen'")

    # Unknown flags and transport conflicts.
    expect_reject(binary, ["--bogus"], "bad argument '--bogus'")
    expect_reject(binary, ["--max-incremental"], "bad argument")
    expect_reject(binary, ["--listen", "0", "--unix", "x.sock"],
                  "--listen and --unix are mutually exclusive")

    # The matrix above must have touched every flag --help advertises.
    exercised = set(VALUE_FLAGS) | set(BARE_FLAGS) | {"--help"}
    missed = help_flags - exercised
    check(not missed, "every --help flag is exercised by this check",
          f"unexercised: {sorted(missed)}")


# --- layer 3: behaviour -----------------------------------------------------

def frame(**kwargs) -> bytes:
    return (json.dumps(kwargs, separators=(",", ":")) + "\n").encode()


def graph_frame(rid: str, edges: list[list[int]], *, warm: bool) -> bytes:
    return frame(id=rid,
                 graph={"num_vertices": 4, "edges": edges},
                 params={"num_tours": 2, "seed": 11}, warm=warm)


def delta_frame(rid: str, base: str) -> bytes:
    return frame(id=rid, delta={"base": base, "set_widths": [[0, 2.5]]})


class PipeSession:
    """Interactive request/response over the daemon's stdin/stdout."""

    def __init__(self, binary: str, argv: list[str]):
        self.proc = subprocess.Popen([binary, *argv],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)

    def ask(self, request: bytes) -> dict:
        self.proc.stdin.write(request)
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> int:
        self.proc.stdin.close()
        self.proc.stdout.read()
        return self.proc.wait(timeout=60)


def check_session_cap(binary: str) -> None:
    """--max-incremental-sessions N keeps at most N live delta sessions.

    Two warm bases each get a delta session; at cap 1 the second delta
    FIFO-evicts the first, so chaining on the first's fingerprint is
    `unknown_fingerprint` — while at cap 4 the identical stream ends ok.
    """
    edges_a = [[3, 1], [3, 2], [1, 0], [2, 0]]
    edges_b = [[3, 2], [2, 1], [1, 0]]
    for cap, want_error, label in ((1, "unknown_fingerprint", "evicts"),
                                   (4, None, "keeps")):
        session = PipeSession(binary, ["--threads", "2",
                                       "--max-incremental-sessions",
                                       str(cap)])
        try:
            fp_a = session.ask(graph_frame("a", edges_a, warm=True))
            fp_b = session.ask(graph_frame("b", edges_b, warm=True))
            chain_a = session.ask(delta_frame("da", fp_a["fingerprint"]))
            session.ask(delta_frame("db", fp_b["fingerprint"]))
            tail = session.ask(delta_frame("da2", chain_a["fingerprint"]))
            exit_code = session.close()
        finally:
            if session.proc.poll() is None:
                session.proc.kill()
        if want_error is None:
            ok = tail.get("status") == "ok"
            detail = f"wanted ok, got {tail}"
        else:
            ok = tail.get("error") == want_error
            detail = f"wanted {want_error}, got {tail}"
        check(ok and exit_code == 0,
              f"--max-incremental-sessions {cap} {label} the first chain",
              detail if not ok else f"daemon exit {exit_code}")


def check_socket_lifecycle(binary: str, transport: str) -> None:
    """--listen/--unix start a daemon that SIGTERM drains to exit 0."""
    if transport == "unix":
        sock = f"cli_check_{os.getpid()}.sock"
        argv = [binary, "--unix", sock]
    else:
        sock = ""
        argv = [binary, "--listen", "0"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        ready = proc.stderr.readline().decode(errors="replace")
        check("listening on " in ready,
              f"--{transport} announces readiness on stderr",
              f"got {ready!r}")
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        check(proc.returncode == 0,
              f"--{transport} daemon drains to exit 0 on SIGTERM",
              f"exit {proc.returncode}")
        check(b'"connections_accepted"' in stderr,
              f"--{transport} daemon prints the stats line at shutdown",
              f"stderr: {stderr.decode(errors='replace')!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if sock and os.path.exists(sock):
            os.unlink(sock)


def check_pipe_drain(binary: str) -> None:
    """SIGTERM before end-of-input drains the pipe: every frame already
    read is answered, so stdout is whole lines answering a gap-free,
    in-order prefix of the frames sent, and the daemon exits 0."""
    edges = [[3, 1], [3, 2], [1, 0], [2, 0]]
    ids = [f"p{i}" for i in range(300)]
    burst = b"".join(frame(id=rid, graph={"num_vertices": 4, "edges": edges},
                           params={"num_tours": 40, "seed": i})
                     for i, rid in enumerate(ids))
    proc = subprocess.Popen([binary, "--threads", "2"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        proc.stdin.write(burst)  # fits the pipe buffer; stdin stays open
        proc.stdin.flush()
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        rest = proc.stdout.read()
        exit_code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    out = first + rest
    check(exit_code == 0, "pipe daemon drains to exit 0 on SIGTERM",
          f"exit {exit_code}")
    lines = out.split(b"\n")
    whole = lines[-1] == b""
    docs = [json.loads(line) for line in lines[:-1]] if whole else []
    got = [doc.get("id") for doc in docs]
    check(whole and 0 < len(got) and got == ids[:len(got)],
          "pipe SIGTERM answers an in-order, gap-free prefix in whole lines",
          f"{len(got)} responses, torn tail {not whole}: {got[:5]}...")
    # The burst is far past --queue-depth (64), but the loop holds a
    # connection's frames at its cap, so a lone pipe writer is never shed.
    statuses = {doc.get("status") for doc in docs}
    check(statuses <= {"ok"}, "pipe burst past --queue-depth is all ok",
          f"statuses {sorted(map(str, statuses))}")


def check_pipe_line_edges(binary: str) -> None:
    """The pipe answers every line: one past the 8 MB frame cap is
    `rejected` and serving goes on, and a last line without its newline
    is still a frame."""
    edges = [[1, 0]]
    first = graph_frame("before", edges, warm=False)
    last = graph_frame("after", edges, warm=False).rstrip(b"\n")
    oversized = b"x" * (9 << 20) + b"\n"
    proc = run(binary, [], stdin=first + oversized + last)
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    check(proc.returncode == 0 and len(docs) == 3
          and docs[1].get("error") == "bad_request"
          and docs[0].get("status") == docs[2].get("status") == "ok",
          "pipe answers an oversized line `rejected` and keeps serving",
          f"exit {proc.returncode}, responses {[d.get('status') for d in docs]}")
    check(len(docs) == 3 and docs[2].get("id") == "after",
          "pipe answers a last line that has no trailing newline",
          f"ids {[d.get('id') for d in docs]}")


def check_pipe_stdout_failure(binary: str) -> None:
    """A pipe daemon whose stdout is gone reports it and exits non-zero
    instead of looking finished."""
    proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before any response exists
    try:
        _, stderr = proc.communicate(graph_frame("lost", [[1, 0]],
                                                 warm=False), timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    check(proc.returncode == 1 and b"stdout failed" in stderr,
          "pipe exits 1 with a message when stdout fails",
          f"exit {proc.returncode}, stderr {stderr.decode(errors='replace')!r}")


def check_pipe_stats_every(binary: str) -> None:
    """--stats-every applies to the pipe as well as to sockets."""
    proc = subprocess.Popen([binary, "--stats-every", "0.2"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        proc.stdin.write(graph_frame("s", [[1, 0]], warm=False))
        proc.stdin.flush()
        proc.stdout.readline()
        time.sleep(0.6)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = [ln for ln in stderr.decode(errors="replace").splitlines()
             if '"connections_accepted"' in ln]
    check(proc.returncode == 0 and len(lines) >= 1,
          "--stats-every 0.2 prints stats lines over the pipe",
          f"exit {proc.returncode}, {len(lines)} stats lines")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the acolay_serve executable")
    parser.add_argument("--doc", required=True,
                        help="path to docs/SERVING.md")
    args = parser.parse_args()

    help_flags = flags_from_help(args.binary)
    doc_flags = flags_from_doc(pathlib.Path(args.doc))
    check(help_flags == doc_flags,
          "--help flags match the docs/SERVING.md CLI flags table",
          f"help-only: {sorted(help_flags - doc_flags)}, "
          f"doc-only: {sorted(doc_flags - help_flags)}")

    check_parse_matrix(args.binary, help_flags - {"--help"})
    check_session_cap(args.binary)
    check_socket_lifecycle(args.binary, "tcp")
    check_socket_lifecycle(args.binary, "unix")
    check_pipe_drain(args.binary)
    check_pipe_line_edges(args.binary)
    check_pipe_stdout_failure(args.binary)
    check_pipe_stats_every(args.binary)

    if FAILURES:
        print(f"\n{len(FAILURES)} contract check(s) failed")
        return 1
    print("\nserve CLI contract OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
