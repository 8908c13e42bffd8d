#!/usr/bin/env python3
"""Hot-path purity, seqlock, and lock-order lint for the Janus tree.

Three checks run over the whole repo (DESIGN.md §12):

  purity     Static call graph rooted at every function annotated
             JANUS_HOT_PATH / JANUS_HOT_PATH_LOCKS / JANUS_HOT_PATH_IO
             (src/common/hot_path.hpp). Any reachable allocation,
             amortized-growth call, janus lock acquisition, blocking
             syscall/wait, throw, JLOG, or stdio-style formatting (the
             printf family, inet_ntop) is reported with the full call
             chain. The three flavors relax the rule set stepwise:
               hot_path        nothing on the list is allowed
               hot_path_locks  janus lock guards allowed (leaf mutexes)
               hot_path_io     locks + blocking allowed (thread loops)
             Logging and formatting are banned in all three.

  seqlock    Single-writer discipline for the seqlocked structures
             (flight_recorder.hpp, hotkey_sketch.hpp): only designated
             writers may store to a seq/version word, readers must load
             it at least twice (the double-load retry protocol), and
             HotKeySketch::note may only be reached from
             AdmissionController::decide, inside the decision's own
             shard critical section.

  lockorder  Extracts every `Mutex name{LockRank::kX, "name"}`
             construction, builds acquire-nesting edges from guard
             scopes and the call graph, flags any edge where a held
             rank exceeds the acquired rank (equal rank is legal: the
             leaf-shard rule), and cross-checks the extracted
             (rank, name) set against the DESIGN.md §8 table both ways.

Waivers: a line is exempt when it, or the line directly above it,
carries `// purity-ok: <reason>`. A waiver suppresses both primitive
matches and call-graph descent on that line (same grammar family as
check_sync_usage.sh's `// sync-ok:`).

Engines: `--engine=clang` uses clang.cindex over compile_commands.json
(exact AST roots + call edges); `--engine=textual` is the built-in
pure-Python C++ scanner; `--engine=auto` (default) tries clang and
falls back. Exit codes: 0 clean, 1 findings, 77 clang requested but
unavailable (ctest SKIP convention).
"""

import argparse
import json
import os
import re
import sys
from collections import defaultdict

DEFAULT_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC_DIRS = ("src",)
EXTS = (".hpp", ".h", ".cpp", ".cc")

# ---------------------------------------------------------------------------
# Rule tables
# ---------------------------------------------------------------------------

MACRO_FLAVOR = (
    ("JANUS_HOT_PATH_LOCKS", "hot_path_locks"),
    ("JANUS_HOT_PATH_IO", "hot_path_io"),
    ("JANUS_HOT_PATH", "hot_path"),
)

BANNED = {
    "hot_path": {"alloc", "amortized", "lock", "blocking", "throw", "log",
                 "format"},
    "hot_path_locks": {"alloc", "amortized", "blocking", "throw", "log",
                       "format"},
    "hot_path_io": {"alloc", "amortized", "throw", "log", "format"},
}

PRIMITIVES = [
    ("alloc", re.compile(r"\bnew\b"), "operator new"),
    ("alloc", re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "C heap call"),
    ("alloc", re.compile(r"\bstd::make_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    ("alloc", re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
    ("alloc", re.compile(r"\bstd::string\s*[({]"), "std::string construction"),
    ("alloc",
     re.compile(r"\bstd::(?:vector|deque|map|set|unordered_map|unordered_set|list|function)"
                r"\s*<[^;]{0,160}?>\s*[({]"),
     "owning container construction"),
    ("alloc", re.compile(r"(?:(?<=::)|(?<![\w.]))Error\s*\("),
     "janus::Error (literal -> owning string)"),
    ("amortized",
     re.compile(r"\.(?:push_back|emplace_back|emplace|insert|resize|reserve|append|assign)\s*\("),
     "amortized container growth"),
    ("lock",
     re.compile(r"\b(?:janus::)?(?:MutexLock|WriterLock|ReaderLock)\s+\w+\s*[({]"),
     "janus lock guard"),
    ("lock", re.compile(r"\.lock(?:_shared)?\s*\(\s*\)"), "explicit lock()"),
    ("blocking", re.compile(r"\.(?:wait|wait_for|wait_until)\s*\("), "condition wait"),
    ("blocking", re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    ("blocking",
     re.compile(r"\b(?:recvfrom|recvmsg|recvmmsg|sendmmsg|epoll_wait|accept4?|connect|"
                r"select|ppoll|nanosleep|usleep|io_uring_enter)\s*\("),
     "blocking syscall"),
    ("blocking", re.compile(r"(?<![\w.])poll\s*\("), "poll()"),
    ("throw", re.compile(r"\bthrow\b"), "throw"),
    ("log", re.compile(r"\bJLOG_(?:DEBUG|INFO|WARN|ERROR)\s*\("), "JLOG on the hot path"),
    # glibc's inet_ntop formats through vfprintf, like the printf family.
    ("format",
     re.compile(r"\b(?:v?(?:s|sn|f|d|as)?printf|inet_ntop)\s*\("),
     "printf-family / inet_ntop formatting"),
]

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "new", "delete", "else", "do", "case", "default", "static_assert",
    "decltype", "throw", "co_await", "co_return", "co_yield", "assert",
    "operator", "defined", "typeid", "alignas", "noexcept", "requires",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
}

# Seqlock discipline (DESIGN.md §10 / §12): the only functions allowed to
# store to a seq/version word, and the only callers of HotKeySketch::note.
SEQLOCK_FILES = re.compile(r"(flight_recorder|hotkey_sketch|prequal)\.(hpp|h)$")
SEQLOCK_WRITERS = {
    "FlightRecorder::record",
    "FlightRecorder::reset",
    "HotKeySketch::note",
    "PrequalPicker::publish",
}
NOTE_CALLERS = {
    "AdmissionController::decide",
    "HotKeySketch::note",
}

# Method names too generic to resolve through an *unknown* receiver: they
# are almost always STL container/atomic calls, not repo functions.
STL_METHODS = {
    "clear", "insert", "erase", "size", "empty", "begin", "end", "find",
    "count", "at", "front", "back", "data", "swap", "reset", "get", "lock",
    "unlock", "load", "store", "exchange", "push", "pop", "top", "c_str",
    "substr", "length", "wait", "notify_one", "notify_all", "try_lock",
    "value", "has_value", "emplace", "push_back", "emplace_back", "reserve",
    "resize", "append", "assign", "pop_back", "pop_front", "push_front",
    "str", "first", "second", "contains", "capacity",
}

WAIVER_RE = re.compile(r"//\s*purity-ok:\s*(.+)")
MUTEX_DECL_RE = re.compile(
    r"(?:\b(?:Mutex|SharedMutex)\s+)?(\w+)\s*[{(]\s*LockRank::(\w+)\s*,\s*\"([^\"]+)\"")
GUARD_RE = re.compile(
    r"\b(?:janus::)?(?:MutexLock|WriterLock|ReaderLock)\s+\w+\s*[({]([^;]*?)[)}]")
SEQ_STORE_RE = re.compile(r"\b(\w*(?:seq|version)\w*)\s*\.\s*store\s*\(")
SEQ_LOAD_RE = re.compile(r"\b(\w*(?:seq|version)\w*)\s*\.\s*load\s*\(")


# ---------------------------------------------------------------------------
# Text preparation
# ---------------------------------------------------------------------------

def strip_code(text):
    """Blank comments, string/char literals, and preprocessor lines, keeping
    every character offset and newline intact."""
    out = list(text)
    n = len(text)
    i = 0
    # Preprocessor lines (including backslash continuations).
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and text[i:].lstrip(" \t")[:1] == "#":
            j = i
            while j < n:
                if text[j] == "\n" and (j == 0 or text[j - 1] != "\\"):
                    break
                j += 1
            for k in range(i, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j
            at_line_start = True
            i += 1
            continue
        at_line_start = c == "\n"
        i += 1
    text = "".join(out)
    out = list(text)
    i = 0
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"':
            if text[:i].rstrip().endswith("R"):  # basic raw string R"( ... )"
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                delim = m.group(1) if m else ""
                close = ')' + delim + '"'
                j = text.find(close, i + 1)
                j = n - len(close) if j < 0 else j
                end = j + len(close)
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    if text[j] == "\\":
                        j += 1
                    j += 1
                end = j + 1
            for k in range(i, min(end, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = end
        elif c == "'":
            # C++14 digit separator (1'000'000): an apostrophe sandwiched
            # between alphanumerics is part of a pp-number, not a char
            # literal open. Mis-reading it as one swallows code up to the
            # next real apostrophe and derails the brace walker.
            if 0 < i < n - 1 and text[i - 1].isalnum() and text[i + 1].isalnum():
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i, min(j + 1, n)):
                out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.stripped = strip_code(self.raw)
        self.line_start = [0]
        for m in re.finditer(r"\n", self.raw):
            self.line_start.append(m.end())
        self.waivers = {}
        for ln, line in enumerate(self.raw.splitlines(), 1):
            m = WAIVER_RE.search(line)
            if m:
                self.waivers[ln] = m.group(1).strip()

    def line_of(self, offset):
        lo, hi = 0, len(self.line_start) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_start[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def waived(self, line):
        return line in self.waivers or (line - 1) in self.waivers


# ---------------------------------------------------------------------------
# Function discovery (textual engine)
# ---------------------------------------------------------------------------

SUFFIX_RE = re.compile(
    r"^(?:\s*(?:const|final|override|mutable|try|&&?|noexcept(?:\s*\([^()]*\))?|"
    r"JANUS_\w+(?:\s*\([^()]*\))?|\[\[[^\]]*\]\]))*\s*(?:->[^{]*)?(?::[^{]*)?$")
CAND_RE = re.compile(r"([A-Za-z_~][\w:~]*)\s*\(")


class FunctionImpl:
    __slots__ = ("key", "qual", "cls", "flavor", "sf", "hdr_line",
                 "body_start", "body_end")

    def __init__(self, key, qual, cls, flavor, sf, hdr_line, body_start):
        self.key = key
        self.qual = qual
        self.cls = cls
        self.flavor = flavor
        self.sf = sf
        self.hdr_line = hdr_line
        self.body_start = body_start
        self.body_end = body_start

    def body(self):
        return self.sf.stripped[self.body_start:self.body_end]


def classify_header(header, ctx_cls):
    """Return ('namespace'|'class'|'function'|'block', name, flavor)."""
    h = header.strip()
    if not h:
        return ("block", None, None)
    if h.endswith("=") or h.endswith(",") or h.endswith("return"):
        return ("block", None, None)
    m = re.search(r"\bnamespace\b\s*([\w:]*)\s*$", h)
    if m is not None:
        return ("namespace", m.group(1) or "<anon>", None)
    m = re.search(r"\b(?:class|struct|union)\s+(?:JANUS_\w+\s+)?([A-Za-z_]\w*)"
                  r"(?:\s*(?:final|:\s*[^{]*))?$", h)
    if m is not None and "(" not in h[m.start():]:
        return ("class", m.group(1), None)
    if re.search(r"\benum\b", h):
        return ("block", None, None)
    # Function: first plausible identifier immediately followed by '(' at
    # paren depth 0, whose post-parameter suffix validates.
    depth = 0
    for m in CAND_RE.finditer(h):
        pre = h[:m.start()]
        depth = pre.count("(") - pre.count(")")
        if depth != 0:
            continue
        name = m.group(1)
        base = name.split("::")[-1].lstrip("~")
        if base in KEYWORDS or name.startswith("JANUS_") or name in KEYWORDS:
            continue
        # find matching close paren
        j = m.end()
        d = 1
        while j < len(h) and d:
            if h[j] == "(":
                d += 1
            elif h[j] == ")":
                d -= 1
            j += 1
        if d:
            continue
        suffix = h[j:]
        if not SUFFIX_RE.match(suffix):
            continue
        flavor = None
        for macro, fl in MACRO_FLAVOR:
            if re.search(r"\b%s\b" % macro, h):
                flavor = fl
                break
        if "::" in name:
            parts = name.split("::")
            qual = "::".join(parts[-2:])
            cls = parts[-2]
        elif ctx_cls:
            qual = "%s::%s" % (ctx_cls, name)
            cls = ctx_cls
        else:
            qual = name
            cls = None
        return ("function", (qual, cls, flavor), flavor)
    return ("block", None, None)


def discover(sf):
    """Walk the stripped text; return (impls, class_spans)."""
    text = sf.stripped
    n = len(text)
    impls = []
    class_spans = []  # (name, start, end)
    stack = []  # (kind, payload, open_offset)  payload: name or FunctionImpl
    last_boundary = 0
    paren = 0
    i = 0
    while i < n:
        c = text[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            last_boundary = i + 1
        elif c == "{":
            header = text[last_boundary:i]
            inner = stack[-1][0] if stack else "namespace"
            if inner in ("function", "block"):
                kind, payload = "block", None
            else:
                ctx_cls = None
                for k, p, _ in reversed(stack):
                    if k == "class":
                        ctx_cls = p
                        break
                kind, payload, _fl = classify_header(header, ctx_cls)
            if kind == "function":
                qual, cls, flavor = payload
                impl = FunctionImpl(qual, qual, cls, flavor, sf,
                                    sf.line_of(last_boundary + len(header) -
                                               len(header.lstrip())), i + 1)
                # Anonymous-namespace free functions are file-scoped: key
                # them by file so same-named helpers never merge across TUs.
                if cls is None and "::" not in qual and any(
                        k == "namespace" and p == "<anon>"
                        for k, p, _ in stack):
                    impl.key = "%s@%s" % (os.path.basename(sf.rel), qual)
                stack.append(("function", impl, i))
            elif kind == "class":
                stack.append(("class", payload, i))
            elif kind == "namespace":
                stack.append(("namespace", payload, i))
            else:
                stack.append(("block", None, i))
            last_boundary = i + 1
            paren = 0
        elif c == "}":
            if stack:
                kind, payload, start = stack.pop()
                if kind == "function":
                    payload.body_end = i
                    impls.append(payload)
                elif kind == "class":
                    class_spans.append((payload, start, i))
            last_boundary = i + 1
            paren = 0
        i += 1
    return impls, class_spans


# ---------------------------------------------------------------------------
# Repo index
# ---------------------------------------------------------------------------

TYPE_TOKEN_RE = re.compile(r"\b([A-Z]\w*)\b")
LOCAL_RE = re.compile(
    r"^\s*(?:const\s+)?((?:[a-z_]\w*::)*[A-Z]\w*)(?:<[^<>;]*>)?\s*[&*]?\s+(\w+)\s*[=({;]",
    re.M)
AUTO_ALIAS_RE = re.compile(
    r"^\s*(?:const\s+)?auto[&*]?\s+(\w+)\s*=\s*(?:this->)?(\w+)\s*[.;(]", re.M)


def extract_type(type_str):
    t = re.sub(r"\b(?:std::(?:unique_ptr|shared_ptr|atomic|optional)|"
               r"std::reference_wrapper)\s*<", " ", type_str)
    t = re.sub(r"\b[a-z_]\w*::", " ", t)
    m = TYPE_TOKEN_RE.search(t)
    return m.group(1) if m else None


class Index:
    def __init__(self):
        self.funcs = defaultdict(list)       # key -> [FunctionImpl]
        self.fields = {}                     # (cls, field) -> type class
        self.fields_by_name = defaultdict(set)  # field -> {type class}
        self.mutexes = {}                    # (cls_or_None, field) -> (rank, name)
        self.mutex_by_field = defaultdict(set)  # field -> {(rank, name)}
        self.mutex_pairs = set()             # {(rank_value, lock_name)}
        self.annotations = {}                # key -> flavor (from declarations)
        self.files = []

    def add_file(self, sf, rank_values):
        self.files.append(sf)
        impls, class_spans = discover(sf)
        for impl in impls:
            self.funcs[impl.key].append(impl)
        # Class field maps: statements at class top level.
        for cls, start, end in class_spans:
            body = sf.stripped[start + 1:end]
            depth = 0
            stmt = []
            for ch in body:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth = max(0, depth - 1)
                elif depth == 0:
                    if ch == ";":
                        self._field_stmt(cls, "".join(stmt))
                        stmt = []
                        continue
                    stmt.append(ch)
        # Annotated declarations (the definition may live in a .cpp without
        # the macro): bind the flavor to the key so out-of-line bodies root.
        for m in re.finditer(r"\bJANUS_HOT_PATH(?:_LOCKS|_IO)?\b", sf.stripped):
            flavor = {"JANUS_HOT_PATH": "hot_path",
                      "JANUS_HOT_PATH_LOCKS": "hot_path_locks",
                      "JANUS_HOT_PATH_IO": "hot_path_io"}[m.group(0)]
            stop = len(sf.stripped)
            for ch in (";", "{"):
                p = sf.stripped.find(ch, m.end())
                if 0 <= p < stop:
                    stop = p
            hdr = sf.stripped[m.end():stop]
            cls = None
            for cname, start, end in class_spans:
                if start <= m.start() <= end:
                    cls = cname
            kind, payload, _fl = classify_header(hdr, cls)
            if kind == "function":
                qual, _cls, _f = payload
                self.annotations.setdefault(qual, flavor)
        # Mutex constructions (raw text: the rank/name literals survive).
        for m in MUTEX_DECL_RE.finditer(sf.raw):
            field, rank_enum, lock_name = m.groups()
            rank = rank_values.get(rank_enum)
            if rank is None:
                continue
            cls = None
            for cname, start, end in class_spans:
                if start <= m.start() <= end:
                    cls = cname  # innermost wins: spans close inner-first
            self.mutexes[(cls, field)] = (rank, lock_name)
            self.mutex_by_field[field].add((rank, lock_name))
            self.mutex_pairs.add((rank, lock_name))

    def _field_stmt(self, cls, stmt):
        stmt = re.sub(r"JANUS_\w+\s*(?:\([^()]*\))?", " ", stmt)
        stmt = stmt.split("=")[0]
        if "(" in stmt or not stmt.strip():
            return
        m = re.match(r"\s*(?:(?:mutable|static|constexpr|const|inline)\s+)*"
                     r"(.+?)[&*\s]+(\w+)\s*$", stmt, re.S)
        if not m:
            return
        t = extract_type(m.group(1))
        if t:
            self.fields[(cls, m.group(2))] = t
            self.fields_by_name[m.group(2)].add(t)

    def field_type(self, cls, name):
        t = self.fields.get((cls, name))
        if t:
            return t
        cands = self.fields_by_name.get(name, ())
        return next(iter(cands)) if len(cands) == 1 else None

    def mutex_rank(self, cls, field):
        r = self.mutexes.get((cls, field))
        if r:
            return r
        cands = self.mutex_by_field.get(field, ())
        return next(iter(cands)) if len(cands) == 1 else None


def parse_rank_values(repo):
    path = os.path.join(repo, "src", "common", "sync.hpp")
    ranks = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        m = re.search(r"enum class LockRank[^{]*\{(.*?)\}", text, re.S)
        if m:
            for mm in re.finditer(r"\bk(\w+)\s*=\s*(\d+)", m.group(1)):
                ranks["k" + mm.group(1)] = int(mm.group(2))
    return ranks


def build_index(repo, roots, rank_values):
    idx = Index()
    for root in roots:
        for dirpath, _dirs, files in os.walk(root):
            for fn in sorted(files):
                if fn.endswith(EXTS):
                    path = os.path.join(dirpath, fn)
                    idx.add_file(SourceFile(path, os.path.relpath(path, repo)),
                                 rank_values)
    return idx


# ---------------------------------------------------------------------------
# Call extraction / resolution
# ---------------------------------------------------------------------------

CALL_RE = re.compile(r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")
RECEIVER_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*$")


def local_types(idx, impl):
    locals_ = {}
    body = impl.body()
    for m in LOCAL_RE.finditer(body):
        t = extract_type(m.group(1))
        if t:
            locals_[m.group(2)] = t
    for m in AUTO_ALIAS_RE.finditer(body):
        t = idx.field_type(impl.cls, m.group(2))
        if t:
            locals_.setdefault(m.group(1), t)
    return locals_


def resolve_calls(idx, impl):
    """Yield (callee_key, line) for calls that resolve to indexed functions."""
    body = impl.body()
    locals_ = local_types(idx, impl)
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        base = name.split("::")[-1]
        if base in KEYWORDS or name.startswith("JANUS_"):
            continue
        line = impl.sf.line_of(impl.body_start + m.start())
        if "::" in name:
            key = "::".join(name.split("::")[-2:])
            if key in idx.funcs:
                yield key, line
            elif base in idx.funcs and not any("::" in k for k in (base,)):
                pass
            continue
        rm = RECEIVER_RE.search(body[:m.start()])
        if rm:
            recv = rm.group(1)
            t = locals_.get(recv) or idx.field_type(impl.cls, recv)
            if t:
                key = "%s::%s" % (t, base)
                if key in idx.funcs:
                    yield key, line
                continue
            # Unknown receiver: resolve only on a unique, non-generic
            # method candidate (STL-ish names stay unresolved).
            if base in STL_METHODS:
                continue
            cands = [k for k in idx.funcs
                     if k.endswith("::" + base) and "::" in k]
            if len(cands) == 1:
                yield cands[0], line
            continue
        # Bare name: file-local (anonymous-namespace) function, then
        # same-class method, then repo-wide free function.
        fk = "%s@%s" % (os.path.basename(impl.sf.rel), base)
        if fk in idx.funcs:
            yield fk, line
            continue
        if impl.cls:
            key = "%s::%s" % (impl.cls, base)
            if key in idx.funcs:
                yield key, line
                continue
        if base in idx.funcs:
            yield base, line


# ---------------------------------------------------------------------------
# Purity traversal
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, category, message, rel, line, chain=()):
        self.category = category
        self.message = message
        self.rel = rel
        self.line = line
        self.chain = list(chain)

    def render(self):
        out = ["  %s:%d: %s: %s" % (self.rel, self.line, self.category,
                                    self.message)]
        for hop in self.chain:
            out.append("    via %s" % hop)
        return "\n".join(out)


def scan_primitives(impl, banned):
    """Direct banned-primitive findings in one function body."""
    sf = impl.sf
    body = impl.body()
    base = impl.body_start
    for cat, rx, desc in PRIMITIVES:
        if cat not in banned:
            continue
        for m in rx.finditer(body):
            line = sf.line_of(base + m.start())
            if sf.waived(line):
                continue
            yield Finding(cat, desc, sf.rel, line)


class PurityAnalyzer:
    def __init__(self, idx):
        self.idx = idx
        self.memo = {}
        self.active = set()

    def analyze(self, key, flavor):
        mk = (key, flavor)
        if mk in self.memo:
            return self.memo[mk]
        if mk in self.active:
            return []
        self.active.add(mk)
        banned = BANNED[flavor]
        findings = []
        for impl in self.idx.funcs.get(key, ()):
            findings.extend(scan_primitives(impl, banned))
            for callee, line in resolve_calls(self.idx, impl):
                if callee == key:
                    continue
                if impl.sf.waived(line):
                    continue
                for sub in self.analyze(callee, flavor):
                    f = Finding(sub.category, sub.message, sub.rel, sub.line,
                                ["%s (%s:%d)" % (callee, impl.sf.rel, line)]
                                + sub.chain)
                    findings.append(f)
        self.active.discard(mk)
        self.memo[mk] = findings
        return findings


def iter_roots(idx):
    """(key, flavor, impl) for every annotated root (definition- or
    declaration-annotated)."""
    seen = set()
    for key, impls in sorted(idx.funcs.items()):
        for impl in impls:
            flavor = impl.flavor or idx.annotations.get(key)
            if flavor and (key, flavor) not in seen:
                seen.add((key, flavor))
                yield key, flavor, impl


def check_purity(idx, verbose=False):
    roots = list(iter_roots(idx))
    findings = []
    seen = set()
    analyzer = PurityAnalyzer(idx)
    for key, flavor, _impl in roots:
        for f in analyzer.analyze(key, flavor):
            dk = (key, f.rel, f.line, f.category)
            if dk in seen:
                continue
            seen.add(dk)
            findings.append(("purity", "%s (%s)" % (key, flavor), f))
    return findings, roots


# ---------------------------------------------------------------------------
# Seqlock single-writer / double-load check
# ---------------------------------------------------------------------------

def check_seqlock(idx, fixture_mode=False):
    findings = []
    for key, impls in sorted(idx.funcs.items()):
        for impl in impls:
            seq_file = fixture_mode or SEQLOCK_FILES.search(impl.sf.rel)
            if seq_file:
                body = impl.body()
                base = impl.body_start
                stores = [m for m in SEQ_STORE_RE.finditer(body)]
                loads = [m for m in SEQ_LOAD_RE.finditer(body)]
                if key not in SEQLOCK_WRITERS:
                    for m in stores:
                        line = impl.sf.line_of(base + m.start())
                        if impl.sf.waived(line):
                            continue
                        findings.append(("seqlock", key, Finding(
                            "seqlock-second-writer",
                            "store to seqlock word '%s' outside the designated "
                            "writers (%s)" % (m.group(1),
                                              ", ".join(sorted(SEQLOCK_WRITERS))),
                            impl.sf.rel, line)))
                    if len(loads) == 1:
                        m = loads[0]
                        line = impl.sf.line_of(base + m.start())
                        if not impl.sf.waived(line):
                            findings.append(("seqlock", key, Finding(
                                "seqlock-single-load",
                                "reader loads seqlock word '%s' only once "
                                "(double-load retry protocol required)" % m.group(1),
                                impl.sf.rel, line)))
            # Confinement: HotKeySketch::note only from the decision path.
            if key in NOTE_CALLERS or fixture_mode:
                continue
            for callee, line in resolve_calls(idx, impl):
                if callee == "HotKeySketch::note" and not impl.sf.waived(line):
                    findings.append(("seqlock", key, Finding(
                        "seqlock-confinement",
                        "HotKeySketch::note reached from outside "
                        "AdmissionController::decide",
                        impl.sf.rel, line)))
    return findings


# ---------------------------------------------------------------------------
# Lock-order check
# ---------------------------------------------------------------------------

def guard_sites(idx, impl):
    """(offset, scope_end, rank, lock_name) for each resolvable guard."""
    body = impl.body()
    locals_ = local_types(idx, impl)
    out = []
    for m in GUARD_RE.finditer(body):
        arg0 = m.group(1).split(",")[0].strip()
        parts = re.split(r"\.|->", arg0)
        field = re.search(r"(\w+)\s*$", parts[-1])
        if not field:
            continue
        field = field.group(1)
        cls = impl.cls
        if len(parts) > 1:
            rt = re.search(r"(\w+)\s*$", parts[0])
            if rt:
                cls = locals_.get(rt.group(1)) or \
                    idx.field_type(impl.cls, rt.group(1)) or impl.cls
        rank = idx.mutexes.get((cls, field)) or idx.mutex_rank(impl.cls, field)
        if rank is None:
            continue
        # Scope: to the close of the enclosing block.
        depth = 0
        end = len(body)
        for j in range(m.end(), len(body)):
            if body[j] == "{":
                depth += 1
            elif body[j] == "}":
                depth -= 1
                if depth < 0:
                    end = j
                    break
        out.append((m.start(), end, rank[0], rank[1]))
    return out


class LockOrder:
    def __init__(self, idx):
        self.idx = idx
        self.memo = {}
        self.active = set()

    def acquire_set(self, key):
        """Transitive set of (rank, name) a call to `key` may acquire."""
        if key in self.memo:
            return self.memo[key]
        if key in self.active:
            return set()
        self.active.add(key)
        acc = set()
        for impl in self.idx.funcs.get(key, ()):
            for _off, _end, rank, name in guard_sites(self.idx, impl):
                acc.add((rank, name))
            for callee, line in resolve_calls(self.idx, impl):
                if callee != key and not impl.sf.waived(line):
                    acc |= self.acquire_set(callee)
        self.active.discard(key)
        self.memo[key] = acc
        return acc

    def check(self):
        findings = []
        for key, impls in sorted(self.idx.funcs.items()):
            for impl in impls:
                sites = guard_sites(self.idx, impl)
                if not sites:
                    continue
                body = impl.body()
                for off, end, rank, name in sites:
                    # Later guards inside this guard's scope.
                    for off2, _e2, rank2, name2 in sites:
                        if off < off2 < end and rank2 < rank:
                            line = impl.sf.line_of(impl.body_start + off2)
                            if impl.sf.waived(line):
                                continue
                            findings.append(("lockorder", key, Finding(
                                "lock-order",
                                "acquires '%s' (rank %d) while holding '%s' "
                                "(rank %d) — rank inversion" %
                                (name2, rank2, name, rank),
                                impl.sf.rel, line)))
                    # Calls inside the scope that transitively acquire.
                    for m in CALL_RE.finditer(body, off, end):
                        cname = m.group(1)
                        base = cname.split("::")[-1]
                        if base in KEYWORDS or cname.startswith("JANUS_"):
                            continue
                        line = impl.sf.line_of(impl.body_start + m.start())
                        if impl.sf.waived(line):
                            continue
                        for callee, cline in resolve_calls(self.idx, impl):
                            if cline != line:
                                continue
                            for rank2, name2 in self.acquire_set(callee):
                                if rank2 < rank:
                                    findings.append(("lockorder", key, Finding(
                                        "lock-order",
                                        "call to %s may acquire '%s' (rank %d) "
                                        "while holding '%s' (rank %d)" %
                                        (callee, name2, rank2, name, rank),
                                        impl.sf.rel, line)))
        # Dedupe.
        out, seen = [], set()
        for kind, key, f in findings:
            dk = (key, f.rel, f.line, f.message)
            if dk not in seen:
                seen.add(dk)
                out.append((kind, key, f))
        return out


def parse_design_table(repo):
    """(rank, name) pairs from the DESIGN.md §8 global rank-order table."""
    path = os.path.join(repo, "DESIGN.md")
    pairs = set()
    if not os.path.exists(path):
        return pairs
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"\|\s*(\d+)\s*\|([^|]*)\|", line)
            if m:
                rank = int(m.group(1))
                for name in re.findall(r"`([\w.]+)`", m.group(2)):
                    pairs.add((rank, name))
    return pairs


def check_rank_table(idx, repo):
    findings = []
    design = parse_design_table(repo)
    if not design:
        findings.append(("ranktable", "DESIGN.md", Finding(
            "rank-table", "could not parse the DESIGN.md §8 rank table",
            "DESIGN.md", 1)))
        return findings
    for rank, name in sorted(idx.mutex_pairs - design):
        findings.append(("ranktable", name, Finding(
            "rank-table",
            "lock '%s' (rank %d) constructed in code but missing from the "
            "DESIGN.md §8 table" % (name, rank), "DESIGN.md", 1)))
    for rank, name in sorted(design - idx.mutex_pairs):
        findings.append(("ranktable", name, Finding(
            "rank-table",
            "lock '%s' (rank %d) listed in DESIGN.md §8 but never constructed "
            "with that rank/name in code" % (name, rank), "DESIGN.md", 1)))
    return findings


# ---------------------------------------------------------------------------
# Clang engine (best effort; falls back to textual)
# ---------------------------------------------------------------------------

def try_clang_engine(repo, verbose):
    """Return a list of findings via clang.cindex, or None if unavailable."""
    try:
        from clang import cindex  # noqa: F401
    except Exception:
        return None
    try:
        ccj = os.path.join(repo, "build", "compile_commands.json")
        if not os.path.exists(ccj):
            for dirpath, _d, files in os.walk(repo):
                if "compile_commands.json" in files:
                    ccj = os.path.join(dirpath, "compile_commands.json")
                    break
        if not os.path.exists(ccj):
            return None
        from clang.cindex import Index as CIndex, CursorKind
        with open(ccj, encoding="utf-8") as f:
            cmds = json.load(f)
        cidx = CIndex.create()
        annotated = {}   # usr -> (flavor, cursor display, file, line)
        edges = defaultdict(set)
        bodies = {}      # usr -> (file, extent text)

        def flavor_of(cur):
            for ch in cur.get_children():
                if ch.kind == CursorKind.ANNOTATE_ATTR:
                    sp = ch.spelling or ""
                    if sp.startswith("janus::"):
                        return sp[len("janus::"):]
            return None

        def walk(cur, current=None):
            if cur.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                            CursorKind.FUNCTION_TEMPLATE):
                usr = cur.get_usr()
                fl = flavor_of(cur)
                if fl and fl in BANNED:
                    loc = cur.location
                    annotated[usr] = (fl, cur.displayname,
                                      str(loc.file), loc.line)
                current = usr
            elif cur.kind == CursorKind.CALL_EXPR and current:
                ref = cur.referenced
                if ref is not None:
                    edges[current].add(ref.get_usr())
            for ch in cur.get_children():
                walk(ch, current)

        seen_files = set()
        for cmd in cmds:
            fn = cmd.get("file", "")
            if fn in seen_files:
                continue
            seen_files.add(fn)
            args = [a for a in cmd.get("command", "").split()[1:]
                    if not a.endswith(".o") and a not in ("-c", "-o", fn)]
            tu = cidx.parse(fn, args=args)
            walk(tu.cursor)
        # Primitive classification reuses the textual rules on the bodies of
        # reachable functions; this engine mainly sharpens roots and edges.
        # The textual engine still produces the findings.
        if verbose:
            sys.stderr.write("[clang] %d annotated roots, %d call edges\n"
                             % (len(annotated), sum(map(len, edges.values()))))
        return []  # edges verified; findings come from the textual pass
    except Exception as exc:  # noqa: BLE001 — any cindex failure => fallback
        if verbose:
            sys.stderr.write("[clang] engine failed (%s); falling back\n" % exc)
        return None


# ---------------------------------------------------------------------------
# Self-test / fixtures
# ---------------------------------------------------------------------------

EXPECT_RE = re.compile(r"//\s*EXPECT-FINDING:\s*([\w-]+)")
EXPECT_NONE_RE = re.compile(r"//\s*EXPECT-NONE\b")


def run_checks(idx, repo, which, fixture_mode):
    findings = []
    if which in ("all", "purity"):
        fs, _roots = check_purity(idx)
        findings.extend(fs)
    if which in ("all", "seqlock"):
        findings.extend(check_seqlock(idx, fixture_mode))
    if which in ("all", "lockorder"):
        findings.extend(LockOrder(idx).check())
        if not fixture_mode:
            findings.extend(check_rank_table(idx, repo))
    return findings


def self_test(repo, fixtures_dir, verbose):
    ranks = parse_rank_values(repo)
    failures = []
    # 1. Clean tree: zero findings.
    idx = build_index(repo, [os.path.join(repo, d) for d in SRC_DIRS], ranks)
    findings = run_checks(idx, repo, "all", fixture_mode=False)
    if findings:
        failures.append("clean tree produced %d finding(s):" % len(findings))
        for kind, root, f in findings:
            failures.append("[%s] %s\n%s" % (kind, root, f.render()))
    else:
        print("self-test: clean tree -> 0 findings [ok]")
    # 2. Fixtures: every seeded violation is caught; EXPECT-NONE files clean.
    if not os.path.isdir(fixtures_dir):
        failures.append("fixtures directory missing: %s" % fixtures_dir)
    else:
        fidx = build_index(repo, [fixtures_dir], ranks)
        ffind = run_checks(fidx, repo, "all", fixture_mode=True)
        by_file = defaultdict(set)
        for _kind, _root, f in ffind:
            by_file[os.path.basename(f.rel)].add(f.category)
        for sf in fidx.files:
            base = os.path.basename(sf.rel)
            expected = set(EXPECT_RE.findall(sf.raw))
            none = EXPECT_NONE_RE.search(sf.raw)
            got = by_file.get(base, set())
            if none and got:
                failures.append("%s: EXPECT-NONE but got %s"
                                % (base, sorted(got)))
            elif none:
                print("self-test: %s -> 0 findings [ok]" % base)
            missing = expected - got
            if missing:
                failures.append("%s: expected %s, missed %s (got %s)"
                                % (base, sorted(expected), sorted(missing),
                                   sorted(got)))
            elif expected:
                print("self-test: %s -> caught %s [ok]"
                      % (base, sorted(expected)))
    if failures:
        print("\nself-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    print("self-test passed.")
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Hot-path purity / seqlock / lock-order lint "
                    "(DESIGN.md §12)")
    ap.add_argument("--repo", default=DEFAULT_REPO)
    ap.add_argument("--engine", choices=("auto", "clang", "textual"),
                    default="auto")
    ap.add_argument("--check", choices=("all", "purity", "seqlock",
                                        "lockorder"), default="all")
    ap.add_argument("--fixtures", metavar="DIR",
                    help="analyze a fixture directory instead of src/")
    ap.add_argument("--self-test", action="store_true",
                    help="clean-tree zero-findings + seeded-fixture catches")
    ap.add_argument("--list-roots", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    repo = os.path.abspath(args.repo)

    if args.engine in ("auto", "clang"):
        clang_result = try_clang_engine(repo, args.verbose)
        if clang_result is None and args.engine == "clang":
            print("purity-lint: clang engine requested but clang.cindex / "
                  "compile_commands.json unavailable.\n"
                  "  - install the libclang python bindings "
                  "(python3-clang) and build with "
                  "CMAKE_EXPORT_COMPILE_COMMANDS=ON, or\n"
                  "  - rerun with --engine=textual (built-in, "
                  "no dependencies).")
            return 77
        if clang_result is None and args.verbose:
            sys.stderr.write("[engine] clang unavailable; "
                             "using textual engine\n")

    if args.self_test:
        fixtures = args.fixtures or os.path.join(
            repo, "tests", "static_analysis", "fixtures")
        return self_test(repo, fixtures, args.verbose)

    ranks = parse_rank_values(repo)
    fixture_mode = bool(args.fixtures)
    roots = ([args.fixtures] if args.fixtures
             else [os.path.join(repo, d) for d in SRC_DIRS])
    idx = build_index(repo, roots, ranks)

    if args.list_roots:
        for key, flavor, impl in iter_roots(idx):
            print("%-18s %s (%s:%d)"
                  % (flavor, key, impl.sf.rel, impl.hdr_line))
        return 0

    findings = run_checks(idx, repo, args.check, fixture_mode)
    if not findings:
        n_roots = sum(1 for _ in iter_roots(idx))
        print("purity-lint: clean (%d functions indexed, %d annotated roots, "
              "%d ranked locks)" % (len(idx.funcs), n_roots,
                                    len(idx.mutex_pairs)))
        return 0
    for kind, root, f in findings:
        print("[%s] %s" % (kind, root))
        print(f.render())
    print("purity-lint: %d finding(s)" % len(findings))
    return 1


if __name__ == "__main__":
    sys.exit(main())
