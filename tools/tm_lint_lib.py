"""Parsing core of tools/tm_analyze.py, the tcsync atomics analyzer.

Its ground truth is the `// mo:` annotation grammar:

  // mo: <order>[ fence] — <free text naming the happens-before partner>

where <order> is one of relaxed | acquire | release | acq_rel | seq_cst.
The free text may reference named happens-before edges as `[tag]`; recurring
cross-file tags are declared in the glossary appendix of
src/condsync/wake_index.h, file-local tags via a declaration line

  // mo-edge: [tag] (minimal: <spec>) — <description>

with <spec> one of
  release/acquire   the edge needs at least one release-side and one
                    acquire-side endpoint in code
  seq_cst           a Dekker-style edge: at least two seq_cst anchors (ops or
                    fences), each with a `seq_cst-required:` justification;
                    weaker endpoints ride the anchors
  relaxed           endpoints only ride the edge (sync comes from another
                    declared edge); no endpoint obligations
  external          synchronization is provided by a non-atomic primitive
                    (semaphore, thread join, lock); no endpoint obligations

A seq_cst site is *justified* when its annotation block contains
`seq_cst-required: <reason>`; tm_analyze's budget gate fails on any
unjustified seq_cst site (including seq_cst fences).
"""

import re
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

ORDERS = ("relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst")

MO_RE = re.compile(r"\bstd::memory_order_(\w+)")
MO_COMMENT_RE = re.compile(r"//.*\bmo:")
ANNOTATION_ORDER_RE = re.compile(
    r"\bmo:\s*(relaxed|consume|acquire|release|acq_rel|seq_cst)\b"
    r"(?:\s*\([^)]*\))?(\s+fence\b)?")
TAG_RE = re.compile(r"\[([a-zA-Z0-9][a-zA-Z0-9_-]*)\]")
SEQ_CST_REQUIRED_RE = re.compile(r"\bseq_cst-required:\s*(.*)")
EDGE_DECL_RE = re.compile(
    r"//\s*mo-edge:\s*\[([a-zA-Z0-9][a-zA-Z0-9_-]*)\]\s*"
    r"\(minimal:\s*([a-z/_ ]+?)\s*\)")
# Glossary appendix entries in wake_index.h:  `//  [tag]  (minimal: spec) ...`
GLOSSARY_ENTRY_RE = re.compile(
    r"^//\s+\[([a-zA-Z0-9][a-zA-Z0-9_-]*)\]\s+\(minimal:\s*([a-z/_ ]+?)\s*\)")

FENCE_RE = re.compile(r"\batomic_(?:thread|signal)_fence\s*\(")
ATOMIC_RE = re.compile(
    r"\bstd::atomic(?:_ref\b|_thread_fence\b|_signal_fence\b|\b|<)"
    r"|#\s*include\s*<atomic>"
)

# Atomic member operations that default to seq_cst when no explicit ordering
# argument is given. `.clear()`, `.wait()` and friends are omitted: those
# method names collide with containers all over a normal C++ tree.
ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"fetch_xor|compare_exchange_strong|compare_exchange_weak)\s*\(")
# `std::atomic<T> name` / `std::atomic_flag name` declarations, so the
# operator forms (name = v, name++, name += v) can be flagged per file.
ATOMIC_DECL_RE = re.compile(
    r"\bstd::atomic(?:<[^;=({]*?>)?\s+(\w+)\s*(?:\{|=|;|\[)")

MAX_WALK_UP = 12
MAX_CALL_LOOKAHEAD = 8

MINIMAL_SPECS = ("release/acquire", "seq_cst", "relaxed", "external")


def strip_comments(lines):
    """Per-line code with // and /* */ comments blanked (strings kept)."""
    code = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        n = len(line)
        in_str = None
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if in_str:
                out.append(c)
                if c == "\\" and i + 1 < n:
                    out.append(line[i + 1])
                    i += 2
                    continue
                if c == in_str:
                    in_str = None
                i += 1
                continue
            if c in "\"'":
                in_str = c
                out.append(c)
                i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            out.append(c)
            i += 1
        code.append("".join(out))
    return code


def is_comment_line(line):
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def has_mo_comment(line):
    return MO_COMMENT_RE.search(line) is not None


def find_annotation_start(lines, idx):
    """Index of the line whose comment opens the `// mo:` annotation covering
    lines[idx] (a code line with a memory_order argument), or None.

    Same walk the lint has always used: the annotation is on the same line, or
    on a preceding line reachable by walking up through comment lines and
    statement-continuation lines (a line not ending in `;` or `}`), up to
    MAX_WALK_UP lines.
    """
    if has_mo_comment(lines[idx]):
        return idx
    pos = idx
    for _ in range(MAX_WALK_UP):
        if pos == 0:
            return None
        prev = lines[pos - 1]
        stripped = prev.strip()
        if is_comment_line(prev):
            if has_mo_comment(prev):
                return pos - 1
            pos -= 1
            continue
        if not stripped or stripped.endswith(";") or stripped.endswith("}"):
            return None
        if has_mo_comment(prev):
            return pos - 1
        pos -= 1
    return None


def annotation_block(lines, start, site_idx):
    """The annotation text: from the `// mo:` line through the contiguous
    comment run below it, plus the site line's own trailing comment."""
    parts = []
    if start == site_idx:
        m = lines[start].find("//")
        return lines[start][m:] if m >= 0 else ""
    pos = start
    while pos < site_idx:
        line = lines[pos]
        if is_comment_line(line):
            parts.append(line.strip())
            pos += 1
            continue
        # A continuation code line between the annotation and the site; its
        # trailing comment (if any) still belongs to the block.
        m = line.find("//")
        if m >= 0:
            parts.append(line[m:])
        pos += 1
    m = lines[site_idx].find("//")
    if m >= 0:
        parts.append(lines[site_idx][m:])
    return "\n".join(parts)


class Annotation:
    __slots__ = ("order", "fence", "tags", "seq_cst_reason", "text")

    def __init__(self, order, fence, tags, seq_cst_reason, text):
        self.order = order
        self.fence = fence
        self.tags = tags
        self.seq_cst_reason = seq_cst_reason
        self.text = text


def parse_annotation(text):
    """Parse an annotation block into (order, fence?, tags, seq_cst reason)."""
    m = ANNOTATION_ORDER_RE.search(text)
    order = m.group(1) if m else None
    fence = bool(m and m.group(2))
    tags = []
    for t in TAG_RE.findall(text):
        if t not in tags:
            tags.append(t)
    req = SEQ_CST_REQUIRED_RE.search(text)
    reason = req.group(1).strip() if req else None
    return Annotation(order, fence, tags, reason, text)


class Site:
    """One explicit memory-order site (or fence) in a source file."""

    __slots__ = ("line", "orders", "fence", "annotation")

    def __init__(self, line, orders, fence, annotation):
        self.line = line          # 1-based
        self.orders = orders      # orders named on the site line
        self.fence = fence
        self.annotation = annotation  # Annotation or None


def scan_explicit_sites(lines, code):
    """Every code line naming std::memory_order_* becomes one Site."""
    sites = []
    for i, cl in enumerate(code):
        orders = MO_RE.findall(cl)
        if not orders:
            continue
        start = find_annotation_start(lines, i)
        anno = None
        if start is not None:
            anno = parse_annotation(annotation_block(lines, start, i))
        sites.append(Site(i + 1, orders, bool(FENCE_RE.search(cl)), anno))
    return sites


def _call_has_order(code, line_idx, open_pos):
    """True if the call whose '(' is at (line_idx, open_pos) names a
    memory_order argument anywhere inside its balanced parens."""
    depth = 0
    for li in range(line_idx, min(len(code), line_idx + MAX_CALL_LOOKAHEAD)):
        text = code[li]
        start = open_pos if li == line_idx else 0
        for ci in range(start, len(text)):
            c = text[ci]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    span = (code[line_idx][open_pos:] if li == line_idx
                            else "\n".join([code[line_idx][open_pos:]] +
                                           code[line_idx + 1:li + 1]))
                    return "memory_order" in span
        # Unbalanced so far: keep scanning the next line.
    return False  # Ran out of lookahead; treat conservatively as implicit.


def scan_implicit_sites(lines, code):
    """Atomic operations that default to seq_cst: member calls without a
    memory_order argument, and operator forms (=, ++, --, op=) on variables
    declared std::atomic in the same file. Returns [(1-based line, what)]."""
    findings = []
    for i, cl in enumerate(code):
        for m in ATOMIC_OP_RE.finditer(cl):
            open_pos = cl.find("(", m.end() - 1)
            if open_pos < 0:
                continue
            if not _call_has_order(code, i, open_pos):
                findings.append((i + 1, f".{m.group(1)}() with no ordering"))

    atomic_names = set()
    decl_lines = {}
    for i, cl in enumerate(code):
        if "std::atomic" not in cl:
            continue
        for m in ATOMIC_DECL_RE.finditer(cl):
            atomic_names.add(m.group(1))
            decl_lines.setdefault(m.group(1), set()).add(i)
    if atomic_names:
        op_res = [
            (re.compile(r"\b(" + "|".join(map(re.escape, atomic_names)) +
                        r")\s*(?:\[[^\]]*\]\s*)?(\+\+|--|\+=|-=|\|=|&=|\^=)"),
             "postfix/compound"),
            (re.compile(r"(\+\+|--)\s*(" +
                        "|".join(map(re.escape, atomic_names)) + r")\b"),
             "prefix"),
            (re.compile(r"\b(" + "|".join(map(re.escape, atomic_names)) +
                        r")\s*(?:\[[^\]]*\]\s*)?=(?!=)"), "assignment"),
        ]
        for i, cl in enumerate(code):
            for rex, kind in op_res:
                for m in rex.finditer(cl):
                    name = m.group(1) if kind != "prefix" else m.group(2)
                    if name not in atomic_names:
                        continue
                    if i in decl_lines.get(name, ()):  # the declaration itself
                        continue
                    findings.append(
                        (i + 1,
                         f"operator {kind} on std::atomic `{name}` "
                         "(implicit seq_cst)"))
    return findings


def parse_local_edges(lines):
    """`// mo-edge: [tag] (minimal: spec)` declarations in a file.
    Returns {tag: (spec, 1-based line)}."""
    out = {}
    for i, line in enumerate(lines):
        m = EDGE_DECL_RE.search(line)
        if m:
            out[m.group(1)] = (m.group(2).strip(), i + 1)
    return out


def parse_glossary(lines):
    """Glossary appendix entries (`//  [tag]  (minimal: spec) ...`).
    Returns {tag: (spec, 1-based line)}."""
    out = {}
    for i, line in enumerate(lines):
        m = GLOSSARY_ENTRY_RE.match(line)
        if m:
            out[m.group(1)] = (m.group(2).strip(), i + 1)
    return out


def iter_source_files(roots):
    """Yield every source file under the given roots (files or directories)."""
    for root in roots:
        rootp = Path(root)
        if rootp.is_dir():
            for p in sorted(rootp.rglob("*")):
                if p.suffix in SOURCE_SUFFIXES:
                    yield p
        else:
            yield rootp


def read_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    return text, text.split("\n")
