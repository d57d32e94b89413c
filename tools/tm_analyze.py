#!/usr/bin/env python3
"""Happens-before edge analyzer, seq_cst budget and atomics discipline for
the tcsync tree.

A cross-file static analysis over the `// mo:` annotation grammar (parsing
core: tools/tm_lint_lib.py), plus two per-file layering rules. Run from the
repository root, so paths under src/ read as `src/...`:

    tools/tm_analyze.py src bench examples tests perfbench --report tm_analyze_report.json

What it verifies:

1. Edge graph well-formedness. Every `[tag]` referenced by an annotation is an
   endpoint of that happens-before edge. Tags are declared either in the
   glossary appendix of src/condsync/wake_index.h (cross-file edges) or by a
   file-local `// mo-edge: [tag] (minimal: spec)` line. Per declared edge:
     - minimal `release/acquire`: at least one release-side endpoint (release,
       acq_rel, or seq_cst) and one acquire-side endpoint (acquire, acq_rel,
       or seq_cst) must exist in code; relaxed endpoints only *ride* the edge.
     - minimal `seq_cst`: a Dekker-style edge — it needs at least two seq_cst
       anchors (the two legs, ops or fences), each carrying a
       `seq_cst-required:` justification; weaker endpoints ride the anchors.
     - minimal `relaxed` / `external`: no endpoint obligations (sync comes
       from another edge or from a non-atomic primitive).
   A tag used but declared nowhere is an orphan; a declared tag with zero code
   endpoints is dead.

2. seq_cst budget. Every memory_order_seq_cst site — including seq_cst fences
   — must carry `seq_cst-required: <reason>` in its annotation block, naming
   why acquire/release is insufficient (e.g. a Dekker/store-buffering shape).
   The JSON report carries the budget totals so CI can fail on any new
   unjustified seq_cst.

3. Implicit seq_cst. Atomic member calls with no ordering argument and
   operator forms (=, ++, op=) on std::atomic variables default to seq_cst
   without ever saying so; both are findings everywhere the analyzer runs.

4. Per-site discipline: every std::memory_order_* argument carries a
   `// mo:` annotation, and the annotation's claimed order matches the order
   the code actually uses (no tag ends up attached to a weaker ordering than
   its annotation argues).

5. atomics-allowlist: under src/, raw atomic primitives (`std::atomic`,
   `std::atomic_ref`, `std::atomic_thread_fence`, `<atomic>` includes) are
   allowed only in src/tm/, src/common/, src/condsync/ and src/obs/.
   Everything else in the library uses the TVar/Atomically API (or a sync/
   adapter built on it), so the memory-order reasoning stays in those
   layers. Tests, benches and examples may use raw atomics for harness
   coordination; rules 1-4 still police them.

6. no-dcheck-in-hot-loop: in files tagged with a `lint:hot-path` marker
   comment, TCS_DCHECK must not appear inside a loop body. A Debug-only
   check in a per-access loop distorts Debug-build timing, and disabled in
   Release it hides a real invariant; use TCS_CHECK outside the loop or
   restructure.

Exit status: 0 if clean, 1 if any finding. Findings print as
path:line: [rule] message. The --report JSON is written either way.
"""

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tm_lint_lib as lib

DEFAULT_GLOSSARY = "src/condsync/wake_index.h"

ATOMIC_ALLOWLIST = ("src/tm/", "src/common/", "src/condsync/", "src/obs/")

HOT_PATH_TAG_RE = re.compile(r"lint:hot-path")
DCHECK_RE = re.compile(r"\bTCS_DCHECK(?:_MSG)?\s*\(")
LOOP_HEADER_RE = re.compile(r"(?:^|[^\w])(?:for|while)\s*\(|(?:^|[^\w])do\s*\{")

RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}
ACQUIRE_SIDE = {"acquire", "acq_rel", "seq_cst", "consume"}


def endpoint_sides(order, fence):
    """Which sides of an edge this endpoint can anchor. A fence anchors the
    side(s) its order names; seq_cst anchors both."""
    sides = []
    if order in RELEASE_SIDE:
        sides.append("release")
    if order in ACQUIRE_SIDE:
        sides.append("acquire")
    _ = fence
    return sides


class Analysis:
    def __init__(self):
        self.findings = []   # (path, line, rule, message)
        self.files = {}      # path -> per-file counters
        self.edges = {}      # tag -> edge record
        self.local_decls = {}  # path -> {tag: (spec, line)}
        self.glossary = {}   # tag -> (spec, line)
        self.glossary_path = None

    def finding(self, path, line, rule, msg):
        self.findings.append((path, line, rule, msg))

    def edge(self, tag):
        return self.edges.setdefault(
            tag, {"minimal": None, "declared_in": None, "declared_line": None,
                  "endpoints": []})


def load_glossary(analysis, glossary_path):
    p = Path(glossary_path)
    if not p.is_file():
        print(f"tm_analyze: glossary file not found: {glossary_path}",
              file=sys.stderr)
        return False
    _, lines = lib.read_lines(p)
    analysis.glossary = lib.parse_glossary(lines)
    analysis.glossary_path = p.as_posix()
    for tag, (spec, line) in analysis.glossary.items():
        if spec not in lib.MINIMAL_SPECS:
            analysis.finding(
                analysis.glossary_path, line, "bad-minimal-spec",
                f"glossary entry [{tag}] declares minimal '{spec}'; expected "
                f"one of {', '.join(lib.MINIMAL_SPECS)}")
        e = analysis.edge(tag)
        e["minimal"] = spec
        e["declared_in"] = analysis.glossary_path
        e["declared_line"] = line
    return True


def check_atomics_allowlist(analysis, rel, code):
    if not rel.startswith("src/") or rel.startswith(ATOMIC_ALLOWLIST):
        return
    for i, cl in enumerate(code):
        m = lib.ATOMIC_RE.search(cl)
        if m:
            analysis.finding(
                rel, i + 1, "atomics-allowlist",
                f"raw atomic primitive `{m.group(0).strip()}` outside "
                "src/tm|common|condsync|obs — use the TVar/Atomically API")


def check_hot_loop_dchecks(analysis, rel, text, code):
    if not HOT_PATH_TAG_RE.search(text):
        return
    depth_stack = []  # True for each open '{' that belongs to a loop
    pending_loop = False
    for i, cl in enumerate(code):
        if LOOP_HEADER_RE.search(cl):
            pending_loop = True
        if DCHECK_RE.search(cl) and any(depth_stack):
            analysis.finding(
                rel, i + 1, "no-dcheck-in-hot-loop",
                "TCS_DCHECK inside a loop in a hot-path-tagged file — hoist "
                "it or promote to TCS_CHECK outside the loop")
        for c in cl:
            if c == "{":
                depth_stack.append(pending_loop)
                pending_loop = False
            elif c == "}" and depth_stack:
                depth_stack.pop()


def analyze_file(analysis, path, rel):
    text, lines = lib.read_lines(path)
    code = lib.strip_comments(lines)
    check_atomics_allowlist(analysis, rel, code)
    check_hot_loop_dchecks(analysis, rel, text, code)

    local = lib.parse_local_edges(lines)
    analysis.local_decls[rel] = local
    for tag, (spec, line) in local.items():
        if spec not in lib.MINIMAL_SPECS:
            analysis.finding(
                rel, line, "bad-minimal-spec",
                f"mo-edge [{tag}] declares minimal '{spec}'; expected one of "
                f"{', '.join(lib.MINIMAL_SPECS)}")
        if tag in analysis.glossary:
            analysis.finding(
                rel, line, "shadowed-edge",
                f"mo-edge [{tag}] re-declares a glossary edge; reference the "
                "glossary tag directly instead")
            continue
        e = analysis.edge(tag)
        # First declaration wins for bookkeeping; all file-local uses are
        # checked against the declaration in their own file.
        if e["declared_in"] is None:
            e["minimal"] = spec
            e["declared_in"] = rel
            e["declared_line"] = line

    stats = {"explicit": {}, "implicit": 0,
             "seq_cst_justified": 0, "seq_cst_unjustified": 0}
    analysis.files[rel] = stats

    for site in lib.scan_explicit_sites(lines, code):
        anno = site.annotation
        orders = set(site.orders)
        for o in orders:
            stats["explicit"][o] = stats["explicit"].get(o, 0) + 1
        if anno is None or anno.order is None:
            analysis.finding(
                rel, site.line, "mo-justification",
                "std::memory_order_* without a `// mo:` annotation naming its "
                "happens-before partner")
            if "seq_cst" in orders:
                stats["seq_cst_unjustified"] += 1
                analysis.finding(
                    rel, site.line, "unjustified-seq_cst",
                    "memory_order_seq_cst with no `seq_cst-required:` "
                    "justification (no annotation at all)")
            continue
        if anno.order not in orders:
            analysis.finding(
                rel, site.line, "order-mismatch",
                f"annotation claims `{anno.order}` but the code uses "
                f"{', '.join(sorted('memory_order_' + o for o in orders))}")
        if "seq_cst" in orders:
            if anno.seq_cst_reason:
                stats["seq_cst_justified"] += 1
            else:
                stats["seq_cst_unjustified"] += 1
                analysis.finding(
                    rel, site.line, "unjustified-seq_cst",
                    "memory_order_seq_cst without a `seq_cst-required: "
                    "<reason>` tag naming why acquire/release is insufficient")
        for tag in anno.tags:
            declared = tag in analysis.glossary or tag in local
            if not declared:
                analysis.finding(
                    rel, site.line, "orphan-tag",
                    f"annotation references [{tag}], which is declared "
                    "neither in the glossary "
                    f"({analysis.glossary_path}) nor by a local `// mo-edge:` "
                    "line in this file")
                continue
            analysis.edge(tag)["endpoints"].append({
                "file": rel,
                "line": site.line,
                "order": anno.order,
                "fence": site.fence,
                "justified": bool(anno.seq_cst_reason),
                "sides": endpoint_sides(anno.order, site.fence),
            })

    for line, what in lib.scan_implicit_sites(lines, code):
        stats["implicit"] += 1
        analysis.finding(
            rel, line, "implicit-order",
            f"{what} — defaults to seq_cst; write the ordering explicitly "
            "(with its `// mo:` justification)")


def check_edges(analysis):
    for tag, e in sorted(analysis.edges.items()):
        where = e["declared_in"]
        line = e["declared_line"] or 1
        if where is None:
            # Orphans were already reported per-site.
            continue
        eps = e["endpoints"]
        if not eps:
            analysis.finding(
                where, line, "dead-edge",
                f"declared edge [{tag}] has zero code endpoints — delete the "
                "declaration or annotate the sites that form it")
            continue
        minimal = e["minimal"]
        if minimal == "release/acquire":
            rel_side = [p for p in eps if "release" in p["sides"]]
            acq_side = [p for p in eps if "acquire" in p["sides"]]
            if not rel_side or not acq_side:
                have = "release" if rel_side else (
                    "acquire" if acq_side else "no")
                analysis.finding(
                    where, line, "one-sided-edge",
                    f"edge [{tag}] (minimal: release/acquire) has {have}-side "
                    "endpoints only — a release must pair with an acquire, or "
                    "the edge needs a `seq_cst-required:` Dekker argument")
        elif minimal == "seq_cst":
            anchors = [p for p in eps if p["order"] == "seq_cst"]
            for p in anchors:
                if not p["justified"]:
                    analysis.finding(
                        p["file"], p["line"], "weak-dekker-endpoint",
                        f"edge [{tag}] is declared minimal seq_cst (Dekker); "
                        "this seq_cst anchor lacks a `seq_cst-required:` "
                        "justification")
            if len(anchors) < 2:
                analysis.finding(
                    where, line, "one-sided-edge",
                    f"edge [{tag}] (minimal: seq_cst) has "
                    f"{len(anchors)} seq_cst anchor(s) — a Dekker needs both "
                    "legs (two seq_cst ops/fences); weaker endpoints only "
                    "ride the anchors")
        # minimal relaxed/external: nothing to enforce.


def build_report(analysis, roots):
    budget_justified = sum(
        f["seq_cst_justified"] for f in analysis.files.values())
    budget_unjustified = sum(
        f["seq_cst_unjustified"] for f in analysis.files.values())
    implicit = sum(f["implicit"] for f in analysis.files.values())
    edges = {}
    for tag, e in sorted(analysis.edges.items()):
        if e["declared_in"] is None:
            continue
        eps = e["endpoints"]
        edges[tag] = {
            "minimal": e["minimal"],
            "declared_in": e["declared_in"],
            "endpoints": eps,
            "release_side": sum(1 for p in eps if "release" in p["sides"]),
            "acquire_side": sum(1 for p in eps if "acquire" in p["sides"]),
        }
    return {
        "schema_version": 1,
        "tool": "tm_analyze",
        "roots": roots,
        "files": analysis.files,
        "edges": edges,
        "budget": {
            "seq_cst_total": budget_justified + budget_unjustified,
            "seq_cst_justified": budget_justified,
            "seq_cst_unjustified": budget_unjustified,
            "implicit_order_sites": implicit,
        },
        "findings": [
            {"file": p, "line": l, "rule": r, "message": m}
            for p, l, r, m in analysis.findings
        ],
    }


def main(argv):
    ap = argparse.ArgumentParser(
        prog="tm_analyze",
        description="Happens-before edge analyzer and seq_cst budget")
    ap.add_argument("roots", nargs="*", default=None,
                    help="files or directories to scan (default: src)")
    ap.add_argument("--glossary", default=DEFAULT_GLOSSARY,
                    help="file holding the cross-file edge glossary appendix")
    ap.add_argument("--report", default=None,
                    help="write the machine-readable JSON report here")
    args = ap.parse_args(argv[1:])
    roots = args.roots or ["src"]

    analysis = Analysis()
    if not load_glossary(analysis, args.glossary):
        return 1

    seen_any = False
    for p in lib.iter_source_files(roots):
        if not p.is_file():
            print(f"tm_analyze: no such file: {p}", file=sys.stderr)
            return 1
        seen_any = True
        analyze_file(analysis, p, p.as_posix())
    if not seen_any:
        print(f"tm_analyze: no source files under {roots}", file=sys.stderr)
        return 1

    check_edges(analysis)

    report = build_report(analysis, roots)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8")

    for path, line, rule, msg in sorted(analysis.findings):
        print(f"{path}:{line}: [{rule}] {msg}")
    b = report["budget"]
    print(
        f"tm_analyze: {len(analysis.findings)} finding(s); seq_cst budget "
        f"{b['seq_cst_justified']} justified / {b['seq_cst_unjustified']} "
        f"unjustified; {b['implicit_order_sites']} implicit-order site(s); "
        f"{len(report['edges'])} edge(s)",
        file=sys.stderr)
    return 1 if analysis.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
