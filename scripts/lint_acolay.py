#!/usr/bin/env python3
"""acolay house-rule linter.

Enforces the determinism and zero-allocation house rules that the
equivalence/determinism test tiers assume but cannot themselves guard:
a refactor that introduces hash-order iteration, a wall-clock seed, or a
hidden allocation compiles fine and may even pass tests on one
platform/stdlib while silently breaking bit-identity on another. These
rules fail the build instead.

Approach: a regex-AST hybrid. Each file is lexed just enough to strip
comments, string and character literals (so tokens inside them never
trigger rules), while the *raw* line text is scanned separately for
suppression directives. Rules then match token patterns against the
stripped text, scoped to directory/file sets. This deliberately trades
full C++ semantic analysis (libclang is not a build dependency) for a
zero-dependency checker that understands exactly the idioms this
codebase bans.

Suppression syntax (mirrors NOLINT, but named and reasoned):

    code();  // lint:allow(rule-name) -- why this use is sound
    // lint:allow-next-line(rule-name) -- why
    code();
    // lint:allow-file(rule-name) -- why            (anywhere in the file)

A suppression with no reason text after `--` is itself a finding
(`suppression-needs-reason`), so every exemption is documented. Several
rules may be named in one directive: lint:allow(rule-a, rule-b) -- why.

Exit status: 0 when no findings, 1 when findings were printed, 2 on
usage/internal error. Run with --self-test to check the linter against
the fixture corpus under tests/lint/ (see that directory's README).
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys
from typing import Callable, Iterable, Optional

# --------------------------------------------------------------------------
# Lexing: strip comments and literals, preserving line structure.
# --------------------------------------------------------------------------


def strip_comments_and_literals(text: str) -> str:
    """Returns `text` with comments, string literals and char literals
    replaced by spaces (newlines preserved, so line/column numbers in the
    stripped text match the original)."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == 'R' and nxt == '"':  # raw string literal R"delim(...)delim"
            m = re.match(r'R"([^(\s\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                end = n if end == -1 else end + len(closer)
                for j in range(i, end):
                    out.append("\n" if text[j] == "\n" else " ")
                i = end
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

_ALLOW_RE = re.compile(
    r"lint:(?P<kind>allow|allow-next-line|allow-file)"
    r"\((?P<rules>[a-z0-9\-\s,]+)\)"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclasses.dataclass
class Suppressions:
    by_line: dict[int, set[str]]  # 1-based line -> rule names allowed there
    whole_file: set[str]
    missing_reason: list[int]  # lines with a directive but no reason


def parse_suppressions(raw_text: str, stripped_lines: list[str]) -> Suppressions:
    by_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    missing: list[int] = []

    def next_code_line(after: int) -> int:
        """First 1-based line after `after` with any code on it —
        allow-next-line skips blank lines and comment continuations, so a
        directive's reason may wrap across comment lines."""
        for idx in range(after, len(stripped_lines)):
            if stripped_lines[idx].strip():
                return idx + 1
        return after + 1

    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        for m in _ALLOW_RE.finditer(line):
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            if not m.group("reason"):
                missing.append(lineno)
            kind = m.group("kind")
            if kind == "allow-file":
                whole_file |= rules
            elif kind == "allow-next-line":
                by_line.setdefault(next_code_line(lineno), set()).update(rules)
            else:  # allow: same line
                by_line.setdefault(lineno, set()).update(rules)
    return Suppressions(by_line, whole_file, missing)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    path: pathlib.Path
    line: int
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Rule:
    name: str
    pattern: re.Pattern
    message: str
    # Paths (relative, '/'-separated) the rule applies to; a predicate on
    # the relative path string.
    applies: Callable[[str], bool]
    # Relative paths exempt without an inline suppression (the rule's own
    # sanctioned home, e.g. support/rng for RNG primitives).
    allowlist: tuple[str, ...] = ()
    # Optional refinement: called with (line, match); returning False
    # drops the match. This is the "AST" half of the hybrid — just enough
    # context to tell `delete p` from `= delete`.
    match_filter: Optional[Callable[[str, re.Match], bool]] = None


def _in(*prefixes: str) -> Callable[[str], bool]:
    return lambda rel: any(rel.startswith(p) for p in prefixes)


def _everywhere(rel: str) -> bool:
    return True


# The ACO inner loop: files on the per-(tour, ant, vertex) path where a
# std::pow (vs the cached/fast-path protocol) or a hidden allocation is a
# measured regression, not a style issue.
_INNER_LOOP_FILES = (
    "src/core/ant.cpp",
    "src/core/ant.hpp",
    "src/core/pheromone.cpp",
    "src/core/pheromone.hpp",
    "src/layering/layer_widths.cpp",
    "src/layering/layer_widths.hpp",
    "src/layering/metrics.cpp",
    "src/layering/spans.cpp",
)


RULES: list[Rule] = [
    Rule(
        name="no-unordered-container",
        pattern=re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b"),
        message=(
            "std::unordered_* in determinism-critical code: hash iteration "
            "order varies across stdlibs and runs, breaking the bit-identity "
            "house rule. Use std::map/std::set, a sorted vector, or index "
            "the data by dense vertex id."
        ),
        applies=_in("src/core/", "src/layering/", "src/graph/"),
    ),
    Rule(
        name="no-nondeterministic-rng",
        pattern=re.compile(
            r"(\bstd\s*::\s*(random_device|mt19937(_64)?|default_random_engine)\b"
            r"|(?<![\w:])s?rand\s*\(|#\s*include\s*<random>)"
        ),
        message=(
            "non-portable or non-seeded randomness: all stochastic choices "
            "must flow from support::Rng (xoshiro256** seeded via "
            "splitmix64) so runs are reproducible across platforms and "
            "stdlibs."
        ),
        applies=_everywhere,
        allowlist=("src/support/rng.hpp", "src/support/rng.cpp"),
    ),
    Rule(
        name="no-wall-clock",
        pattern=re.compile(
            r"(\bstd\s*::\s*time\b|(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"
            r"|\bsystem_clock\s*::\s*now\b|#\s*include\s*<ctime>)"
        ),
        message=(
            "wall-clock reads outside the timing layer: results and seeds "
            "must not depend on when a run happens. Use support::Stopwatch "
            "for durations; timestamps belong to the bench report writer."
        ),
        applies=_everywhere,
        allowlist=("src/support/timer.hpp",),
    ),
    Rule(
        name="no-naked-new",
        pattern=re.compile(r"\bnew\b|\bdelete\b"),
        message=(
            "naked new/delete: ownership must be expressed with containers "
            "or std::unique_ptr/std::make_unique (the allocation guard and "
            "leak hygiene both depend on it)."
        ),
        applies=_in("src/"),
        allowlist=("src/support/alloc_guard.cpp",),
        match_filter=lambda line, m: not (
            # deleted special members: `= delete` / `= delete;`
            (m.group(0) == "delete" and re.search(r"=\s*$", line[: m.start()]))
            # allocator customisation points: `operator new/delete`
            or re.search(r"operator\s*$", line[: m.start()])
        ),
    ),
    Rule(
        name="no-pow-in-inner-loop",
        pattern=re.compile(r"\bstd\s*::\s*pow\b|(?<![\w:])pow\s*\("),
        message=(
            "std::pow on the walk hot path: exponents here are almost "
            "always 0 or 1 — use the PowMode fast-path protocol or the "
            "per-layer eta^beta cache (see core/ant.cpp) so the general "
            "pow only runs when genuinely needed."
        ),
        applies=lambda rel: rel in _INNER_LOOP_FILES,
    ),
    Rule(
        name="no-float-in-aco-math",
        pattern=re.compile(r"(?<![\w:])float\b"),
        message=(
            "float in ACO/metrics math: pheromone and objective arithmetic "
            "is double end-to-end; mixing float narrows intermediates "
            "differently across optimisation levels, breaking "
            "bit-identity. Use double (or an integer type)."
        ),
        applies=_in("src/core/", "src/layering/"),
    ),
    Rule(
        name="no-intrinsics",
        pattern=re.compile(r"#\s*include\s*<(\w*intrin\.h|arm_neon\.h)>"),
        message=(
            "SIMD intrinsics header in library code: write the plain loop "
            "and check the compiler's -fopt-info-vec report that it "
            "vectorizes, or suppress this rule with the measured reason "
            "the intrinsics are needed."
        ),
        applies=_in("src/"),
    ),
    Rule(
        name="banned-include",
        pattern=re.compile(r"#\s*include\s*<(iostream|cstdio|random|ctime)>"),
        message=(
            "banned include in library code: <iostream>/<cstdio> (library "
            "code must not write to std streams — return data, let the "
            "harness print), <random> (portability), <ctime> (wall clock). "
            "See docs/STATIC_ANALYSIS.md for the rationale per header."
        ),
        applies=lambda rel: rel.startswith("src/")
        and not rel.startswith("src/harness/"),
        allowlist=(
            "src/support/timer.hpp",  # CLOCK_PROCESS_CPUTIME_ID needs <ctime>
        ),
    ),
    Rule(
        name="no-poll-sleep",
        pattern=re.compile(
            r"\b(sleep_for|sleep_until|usleep|nanosleep)\b"
            r"|\b(wait_for|wait_until)\s*\("
        ),
        message=(
            "sleeping or timed waiting in library code: a tick adds its "
            "period to every request it sits between. Block on the event "
            "itself instead — poll(2) on an fd, a condition variable with "
            "a predicate, or a completion hook."
        ),
        applies=_in("src/"),
    ),
    Rule(
        name="one-admission-path",
        pattern=re.compile(r"(?<![\w:])(core\s*::\s*)?resolve_cycles\s*\("),
        message=(
            "Phase 0 called outside admission: every solver enters through "
            "core::admit (validation, Phase 0, CSR freeze in one place), so "
            "a check added there covers every entry point. Build a "
            "SolveRequest and call core::admit instead."
        ),
        applies=_in("src/"),
        allowlist=("src/core/request.hpp", "src/core/request.cpp"),
    ),
    Rule(
        name="no-thread-unsafe-static",
        pattern=re.compile(r"\bstatic\s+(?!constexpr\b|const\b)\w[\w:<>,\s*&]*=\s*[^=]"),
        message=(
            "mutable function-local/global static: hidden shared state "
            "breaks run-to-run isolation and thread-count invariance. "
            "Thread state through workspaces/parameters instead."
        ),
        applies=_in("src/core/", "src/layering/"),
    ),
]

RULE_NAMES = {r.name for r in RULES}


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def lint_file(path: pathlib.Path, rel: str, raw: str) -> list[Finding]:
    stripped = strip_comments_and_literals(raw)
    lines = stripped.splitlines()
    sup = parse_suppressions(raw, lines)
    findings: list[Finding] = []

    for lineno in sup.missing_reason:
        findings.append(
            Finding(
                path,
                lineno,
                "suppression-needs-reason",
                "lint:allow directive without a `-- reason`: every "
                "exemption must say why it is sound.",
            )
        )
    for lineno, rules in sorted(sup.by_line.items()):
        for r in sorted(rules - RULE_NAMES):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "unknown-rule",
                    f"suppression names unknown rule '{r}' "
                    f"(known: {', '.join(sorted(RULE_NAMES))})",
                )
            )
    for r in sorted(sup.whole_file - RULE_NAMES):
        findings.append(
            Finding(
                path,
                1,
                "unknown-rule",
                f"file-level suppression names unknown rule '{r}'",
            )
        )

    for rule in RULES:
        if not rule.applies(rel) or rel in rule.allowlist:
            continue
        if rule.name in sup.whole_file:
            continue
        for lineno, line in enumerate(lines, start=1):
            match = rule.pattern.search(line)
            if not match:
                continue
            if rule.match_filter is not None and not rule.match_filter(line, match):
                # First hit was benign; scan the rest of the line for a
                # real one (e.g. `Foo(const Foo&) = delete; delete p;`).
                match = next(
                    (
                        m
                        for m in rule.pattern.finditer(line)
                        if rule.match_filter(line, m)
                    ),
                    None,
                )
                if match is None:
                    continue
            if rule.name in sup.by_line.get(lineno, set()):
                continue
            findings.append(Finding(path, lineno, rule.name, rule.message))
    return findings


def iter_source_files(root: pathlib.Path, subdirs: Iterable[str]) -> Iterable[pathlib.Path]:
    for sub in subdirs:
        base = root / sub
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"):
                yield path


def run_lint(root: pathlib.Path, subdirs: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_source_files(root, subdirs):
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8")
        findings.extend(lint_file(path, rel, raw))
    return findings


# --------------------------------------------------------------------------
# Self-test against the fixture corpus
# --------------------------------------------------------------------------
#
# Fixture protocol: every file under tests/lint/ is linted as if it lived
# at the repo-relative path named in its first line:
#
#     // lint-fixture: src/core/example.cpp
#
# Each line that must be flagged carries a trailing marker comment:
#
#     ... offending code ...  // lint-expect: rule-name
#
# The self-test fails if any expected finding is missed (the rule would
# not catch the violation) or any unexpected finding appears (the rule—or
# a suppression—is broken). Fixtures with suppressions and zero
# lint-expect markers pin that the suppression syntax actually works.

_FIXTURE_PATH_RE = re.compile(r"lint-fixture:\s*(\S+)")
_EXPECT_RE = re.compile(r"lint-expect:\s*([a-z0-9\-]+)")


def run_self_test(root: pathlib.Path) -> int:
    corpus = root / "tests" / "lint"
    fixtures = sorted(corpus.glob("*.cpp*")) + sorted(corpus.glob("*.hpp*"))
    if not fixtures:
        print(f"self-test: no fixtures found under {corpus}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for fixture in fixtures:
        raw = fixture.read_text(encoding="utf-8")
        m = _FIXTURE_PATH_RE.search(raw)
        if not m:
            print(f"{fixture}: missing '// lint-fixture: <path>' header")
            failures += 1
            continue
        rel = m.group(1)
        expected: dict[int, set[str]] = {}
        for lineno, line in enumerate(raw.splitlines(), start=1):
            for em in _EXPECT_RE.finditer(line):
                expected.setdefault(lineno, set()).add(em.group(1))
        # The expect/fixture markers live in comments, so the lexer hides
        # them from the rules themselves.
        got: dict[int, set[str]] = {}
        for f in lint_file(fixture, rel, raw):
            got.setdefault(f.line, set()).add(f.rule)
        checked += 1
        for lineno in sorted(set(expected) | set(got)):
            want = expected.get(lineno, set())
            have = got.get(lineno, set())
            for rule in sorted(want - have):
                print(f"{fixture.name}:{lineno}: MISSED expected [{rule}]")
                failures += 1
            for rule in sorted(have - want):
                print(f"{fixture.name}:{lineno}: UNEXPECTED [{rule}]")
                failures += 1
    if failures:
        print(f"self-test: {failures} mismatch(es) across {checked} fixture(s)")
        return 1
    print(f"self-test: OK ({checked} fixtures, {len(RULES)} rules)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--subdirs",
        nargs="*",
        default=["src"],
        help="top-level directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint the fixture corpus under tests/lint/ and verify the "
        "expected findings instead of linting the tree",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.message}")
        return 0
    if args.self_test:
        return run_self_test(args.root)

    findings = run_lint(args.root, args.subdirs)
    for f in findings:
        print(f.render(args.root))
    if findings:
        print(f"lint_acolay: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
