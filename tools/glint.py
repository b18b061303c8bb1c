#!/usr/bin/env python3
"""glint — AST-based interprocedural analyzer for the glouvain repo.

glint builds a structural model of the sources — functions with
qualified names, class members with types, a call graph — and runs
checks that need to see THROUGH a function call:

  lock-cycle          the lock-acquisition graph over every std::mutex /
                      lock_guard / unique_lock / scoped_lock site has a
                      cycle (A held while taking B, elsewhere B held
                      while taking A): a deadlock waiting for the right
                      interleaving. Mutexes are identified by their
                      declaring class (svc::Service::Impl::m, not the
                      spelling at the lock site), so `impl_->m` and the
                      worker loop's `s.m` alias correctly.
  blocking-under-lock a call made while holding a lock reaches (through
                      any number of calls) a condition_variable wait or
                      thread join on OTHER state: DevicePool::acquire
                      under a svc worker lock, Service::wait under the
                      plan-cache mutex, and friends. Plain nested mutex
                      acquisition is NOT flagged here — that is the
                      lock-order graph's job.
  wait-holding-lock   condition_variable::wait(lk) while a second lock
                      is held: the wait releases only its own mutex, the
                      other one blocks every thread that needs it.
  status-discard      a call whose util::Status / StatusOr result is
                      dropped on the floor (expression statement).
                      Signatures come from the index, so try_* calls are
                      recognized across translation units.
  unchecked-value     .value() on a StatusOr variable with no dominating
                      .ok() / .status() consultation of that variable in
                      the function (or on a temporary, which can never
                      have been checked). StatusOr::value() throws on
                      error — an unchecked one is an assert in disguise.
  arena-escape        a Workspace-backed span or pointer
                      (ws.buffer<T>()) stored into a class member, a
                      static, or a global: the backing memory is handed
                      to its next user or regrown at the next request
                      for that slot, the pointer does not follow it.
  shard-barrier       cross-shard mutable state (GlobalState::apply_move
                      / store_label / rebuild_tot, the last_moved /
                      dirty_round stamps) written inside a run_lanes()
                      fan-out body — directly or one or more calls deep.
                      The concurrent Jacobi rounds treat the global view
                      as read-only until the join barrier publishes the
                      buffered proposals.
  kernel-alloc        operator new / malloc / vector growth inside a
                      Device::launch body, again transitively through
                      the call graph (the cudaMalloc-once discipline).
  unpaired-launch     a Device::launch call with no obs::Span object
                      alive in an enclosing scope (and no begin_span()
                      earlier in the function). Scope-based: a span
                      opened 100 lines up in an outer block pairs, and
                      an unrelated span whose block already closed does
                      not.
  worker-partial      a compound update (+=, -=, ++, --) of an element
                      indexed by the worker id — the body's `unsigned`
                      worker parameter or ctx.worker() — inside a
                      parallel_for / for_each_worker / launch body,
                      lambdas nested in it included. Every worker then
                      adds into one packed per-worker array once per
                      element, so all of them write the same cache
                      lines, and the sum depends on the schedule. Return
                      a chunk partial from prim::reduce instead.
                      parallel_chunks bodies (one write per chunk) and
                      a member of a per-worker struct (`st[w].n += x`,
                      which padding fixes) are not flagged.

and per-token rules over whole files:

  raw-atomic          std::atomic / atomic_ref / atomic_flag or
                      #include <atomic> outside src/simt/ — kernel code
                      goes through simt::atomic_* so the CUDA-intrinsic
                      semantics (and the simtcheck instrumentation) stay
                      in one place.
  raw-intrinsic       #include <immintrin.h> (and kin), _mm*_ calls or
                      __m128/256/512 types outside src/simt/ — kernel
                      code goes through the simt::vec primitives (only
                      src/simt/vector_ops_avx2.cpp is built with -mavx2).
  seq-cst             memory_order_seq_cst anywhere — the device model
                      is relaxed/acq-rel like the GPU original.
  shard-ghost         element access to the sharded engine's exchanged
                      arrays (labels_raw[...] / tot_raw[...]) outside
                      src/shard/halo.hpp — cross-shard reads and writes
                      go through the GlobalState accessors, so every
                      halo access maps onto an explicit exchange
                      message. Passing the whole vector is allowed.

The fan-out and per-token rules report every offending line, once each.

Frontends (--frontend auto|clang|tokens):
  clang    libclang via the python bindings (clang.cindex), driven by
           --compile-commands; precise types and extents. Any failure
           (missing bindings, unparseable TU) degrades to `tokens` with
           a note — CI stays deterministic either way.
  tokens   a self-contained C++ lexer + structural parser (no
           dependencies): tracks namespace/class/function scopes by
           brace matching, records member declarations, and hands each
           check the same IR the clang frontend produces. This is the
           no-clang fallback the container/CI can always run.

Both frontends feed one IR (Program: functions, classes, globals), and
every check runs identically on either. The per-token file rules
re-lex each file's raw text (Program.raw_lines) with the built-in
lexer, so their verdict never depends on the frontend.

Suppression:
  - inline, one finding:   ...;  // glint: allow(rule)
  - committed baseline:    tools/glint_baseline.json — every entry
    carries a "why"; --write-baseline regenerates keys after a refactor.

Output: text (default) and SARIF 2.1.0 (--sarif out.json).
Incremental: --changed-files f1 f2 ... indexes every given root (the
interprocedural context) but only REPORTS findings anchored in the
changed files.

Exit codes: 0 clean, 1 violations, 2 usage error. --expect-violations
flips 0/1 (fixture self-test); with --rules r1,r2 every listed rule
must fire for the fixture to pass.
"""

import argparse
import json
import os
import re
import sys

FILE_RULES = ("raw-atomic", "raw-intrinsic", "seq-cst", "shard-ghost")
ALL_RULES = (
    "lock-cycle", "blocking-under-lock", "wait-holding-lock",
    "status-discard", "unchecked-value", "arena-escape",
    "shard-barrier", "kernel-alloc", "unpaired-launch", "worker-partial",
) + FILE_RULES
SOURCE_EXT = (".cpp", ".hpp", ".cc", ".h")
SUPPRESS_RE = re.compile(r"glint:\s*allow\(([a-z-]+)\)")
CALL_DEPTH = 4  # interprocedural walk bound

# Bare names too common to resolve by name alone (method-call fallback
# when the receiver type cannot be recovered).
AMBIENT_NAMES = frozenset({
    "size", "empty", "begin", "end", "clear", "data", "get", "count",
    "find", "at", "front", "back", "push", "pop", "reset", "value",
    "ok", "status", "str", "c_str", "first", "second", "emplace",
    "insert", "erase", "swap", "move", "forward", "max", "min", "abs",
    "load", "store", "lock", "unlock", "wait", "notify_one",
    "notify_all", "join", "detach", "push_back", "emplace_back",
    "resize", "reserve", "assign", "to_string", "run", "main",
})

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind    # 'id' | 'num' | 'str' | 'chr' | 'p' (punct)
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")
_PUNCT3 = ("...", "->*", "<<=", ">>=", "<=>")
_PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
           "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


def tokenize(text):
    """C++ tokens with line numbers. Comments and preprocessor lines are
    skipped (line structure preserved); string/char literals collapse to
    single tokens so nothing inside them can match a check."""
    toks = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i += 2
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip to EOL, honoring backslash
            # continuations.
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                i += 1
            continue
        at_line_start = False
        if c == '"':
            # Raw strings R"tag(...)tag" need the full delimiter scan.
            if toks and toks[-1].kind == "id" and toks[-1].text.endswith("R") \
                    and toks[-1].text in ("R", "u8R", "uR", "UR", "LR"):
                j = i + 1
                tag = ""
                while j < n and text[j] != "(":
                    tag += text[j]
                    j += 1
                close = ")" + tag + '"'
                k = text.find(close, j)
                k = n if k < 0 else k + len(close)
                line += text.count("\n", i, k)
                toks[-1] = Tok("str", '""', toks[-1].line)
                i = k
                continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            toks.append(Tok("str", '""', line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            # Digit separators (1'000) never reach here: the number
            # lexer below consumes them first.
            toks.append(Tok("chr", "''", line))
            i = j + 1
            continue
        if c in _ID_START:
            j = i
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and nxt.isdigit()):
            j = i
            while j < n and (text[j] in _ID_CONT or text[j] in ".'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        three, two = text[i:i + 3], text[i:i + 2]
        if three in _PUNCT3:
            toks.append(Tok("p", three, line))
            i += 3
        elif two in _PUNCT2:
            toks.append(Tok("p", two, line))
            i += 2
        else:
            toks.append(Tok("p", c, line))
            i += 1
    return toks


# ---------------------------------------------------------------------------
# IR
# ---------------------------------------------------------------------------

class FunctionInfo:
    __slots__ = ("name", "qual", "cls", "file", "line", "end_line",
                 "toks", "params", "ret", "locals")

    def __init__(self, name, qual, cls, file, line):
        self.name = name          # bare name
        self.qual = qual          # namespace-qualified
        self.cls = cls            # qualified enclosing class or None
        self.file = file
        self.line = line
        self.end_line = line
        self.toks = []            # body tokens (inside the outer braces)
        self.params = {}          # name -> type string
        self.ret = ""             # return type string (best effort)
        self.locals = {}          # name -> type string (filled lazily)


class ClassInfo:
    __slots__ = ("name", "qual", "file", "members")

    def __init__(self, name, qual, file):
        self.name = name
        self.qual = qual
        self.file = file
        self.members = {}         # member name -> type string


class Program:
    def __init__(self):
        self.functions = []                 # [FunctionInfo]
        self.by_name = {}                   # bare name -> [FunctionInfo]
        self.by_qual = {}                   # qual suffix name -> FunctionInfo
        self.classes = {}                   # bare name -> [ClassInfo]
        self.globals = set()                # namespace-scope variable names
        self.status_fns = set()             # bare names returning Status*
        self.status_quals = set()           # qualified names returning Status*
        self.raw_lines = {}                 # file -> [str] (file rules,
                                            # suppressions)

    def add_function(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)
        self.by_qual[fn.qual] = fn

    def add_class(self, ci):
        self.classes.setdefault(ci.name, []).append(ci)

    def note_signature(self, name, qual, ret):
        if "Status" in ret:
            self.status_fns.add(name)
            self.status_quals.add(qual)

    def lookup_class(self, name):
        """Resolve a (possibly qualified) type name to a ClassInfo."""
        bare = name.split("::")[-1]
        cands = self.classes.get(bare, [])
        if not cands:
            return None
        if len(cands) == 1 or "::" not in name:
            return cands[0]
        for c in cands:
            if c.qual.endswith(name):
                return c
        return cands[0]

    def lookup_method(self, cls_name, method):
        """Find a FunctionInfo for Class::method."""
        for fn in self.by_name.get(method, []):
            if fn.cls and fn.cls.split("::")[-1] == cls_name.split("::")[-1]:
                return fn
        return None


# ---------------------------------------------------------------------------
# Tokens frontend: structural parser
# ---------------------------------------------------------------------------

_CTRL = frozenset({"if", "for", "while", "switch", "catch", "do", "else",
                   "try", "return"})
_SKIP_HEAD = frozenset({"inline", "static", "constexpr", "const", "virtual",
                        "explicit", "friend", "typename", "extern",
                        "mutable", "volatile", "noexcept", "override",
                        "final"})


def _type_str(toks):
    return " ".join(t.text for t in toks)


def _skip_class_attrs(head, j):
    """Index of the first token after the attributes between a class
    key and the class name: `[[...]]` groups and `alignas(...)`."""
    while j + 1 < len(head):
        if head[j].text == "[" and head[j + 1].text == "[":
            j = match_close(head, j, "[", "]") + 1
        elif head[j].text == "alignas" and head[j + 1].text == "(":
            j = match_close(head, j + 1) + 1
        else:
            break
    return j


class TokenFrontend:
    """Single pass over the token stream with a scope stack. Built for
    this repo's (clang-format-consistent) style; fixture tests under
    tests/lint/ gate it against rot."""

    def __init__(self, program):
        self.p = program

    def parse_file(self, path, rel):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.p.raw_lines[rel] = text.splitlines()
        toks = tokenize(text)
        # scope stack entries: (kind, name, brace_depth_at_open)
        #   kind in {'ns', 'class', 'fn', 'block'}
        scopes = []
        ns = []        # namespace path
        cls_stack = []  # ClassInfo stack
        fn = None      # innermost FunctionInfo being collected
        fn_depth = 0
        depth = 0
        head_start = 0  # token index where the current decl head began
        i, n = 0, len(toks)
        while i < n:
            t = toks[i]
            if fn is not None:
                # Inside a function body: collect tokens until its brace
                # closes; lambdas / nested blocks just ride along.
                if t.text == "{":
                    depth += 1
                elif t.text == "}":
                    depth -= 1
                    if depth < fn_depth:
                        fn.end_line = t.line
                        fn = None
                        if scopes and scopes[-1][0] == "fn":
                            scopes.pop()
                        head_start = i + 1
                        i += 1
                        continue
                fn.toks.append(t)
                i += 1
                continue
            if t.text == "{":
                head = toks[head_start:i]
                kind, name, info = self._classify_head(head, ns, cls_stack,
                                                       rel)
                depth += 1
                scopes.append((kind, name, depth))
                if kind == "ns":
                    ns.append(name)
                elif kind == "class":
                    cls_stack.append(info)
                elif kind == "fn":
                    fn = info
                    fn_depth = depth
                    self.p.add_function(info)
                head_start = i + 1
                i += 1
                continue
            if t.text == "}":
                depth -= 1
                if scopes and scopes[-1][2] == depth + 1:
                    kind, name, _ = scopes.pop()
                    if kind == "ns":
                        ns.pop()
                    elif kind == "class":
                        cls_stack.pop()
                head_start = i + 1
                i += 1
                continue
            if t.text == ";":
                head = toks[head_start:i]
                self._classify_decl(head, ns, cls_stack, rel)
                head_start = i + 1
                i += 1
                continue
            i += 1

    # -- head classification -------------------------------------------------

    def _classify_head(self, head, ns, cls_stack, rel):
        """Decide what scope an opening '{' introduces."""
        texts = [t.text for t in head]
        # Strip trailing base-clause of enum/class and attributes.
        if "namespace" in texts:
            k = texts.index("namespace")
            parts = []
            j = k + 1
            while j < len(texts) and (head[j].kind == "id" or
                                      texts[j] == "::"):
                parts.append(texts[j])
                j += 1
            return ("ns", "".join(parts) or "<anon>", None)
        for key in ("class", "struct"):
            if key in texts:
                k = texts.index(key)
                # `struct X {` / `struct X : base {` / `struct A::B {`
                # — but NOT a return type (`struct X f() {`) or a
                # variable (`struct X x = {`): those have a '(' or '='
                # after the name.
                j = _skip_class_attrs(head, k + 1)
                name_parts = []
                while j < len(texts) and (head[j].kind == "id" or
                                          texts[j] == "::"):
                    if texts[j] not in ("final",):
                        name_parts.append(texts[j])
                    j += 1
                rest = texts[j:]
                if name_parts and ("(" not in rest and "=" not in rest):
                    name = "".join(name_parts)
                    qual = "::".join(ns + [name])
                    ci = ClassInfo(name.split("::")[-1], qual, rel)
                    self.p.add_class(ci)
                    return ("class", name, ci)
        if "enum" in texts or "union" in texts:
            return ("block", "", None)
        # Function definition: ... name ( params ) [quals] {
        info = self._match_function(head, ns, cls_stack, rel)
        if info is not None:
            return ("fn", info.name, info)
        return ("block", "", None)

    def _match_function(self, head, ns, cls_stack, rel):
        texts = [t.text for t in head]
        if not texts:
            return None
        # Walk back over trailer: const noexcept override final -> T &&
        i = len(texts) - 1
        while i >= 0 and texts[i] in ("const", "noexcept", "override",
                                      "final", "&", "&&", "mutable"):
            i -= 1
        # trailing return type `-> T...`
        if "->" in texts[max(0, i - 8):i + 1]:
            while i >= 0 and texts[i] != ")":
                i -= 1
        if i < 0 or texts[i] != ")":
            # ctor-initializer list: `Ctor(...) : a_(x), b_(y) {` — the
            # last token is an init `)` but a `:` separates it from the
            # param list. Find `:` at depth 0 after a `)`.
            i = self._ctor_init_start(texts)
            if i is None:
                return None
        # `i` indexes the `)` closing the parameter list (or the token
        # before the ctor `:`). Match backwards to its `(`.
        depth = 0
        j = i
        while j >= 0:
            if texts[j] == ")":
                depth += 1
            elif texts[j] == "(":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j <= 0:
            return None
        # Name = one identifier chain `A::B::name` (or `~name`) directly
        # before '(' — a greedy walk would swallow the return type.
        k = j - 1
        if k >= 0 and texts[k] == ">":
            return None  # template-id call or specialization artifact
        name_parts = []
        while k >= 0 and head[k].kind == "id":
            name_parts.append(texts[k])
            k -= 1
            if k >= 0 and texts[k] == "~":
                name_parts.append("~")
                k -= 1
            if k >= 0 and texts[k] == "::":
                name_parts.append("::")
                k -= 1
            else:
                break
        if not name_parts:
            return None
        name_parts.reverse()
        full = "".join(name_parts)
        if "operator" in full:
            return None
        bare = full.split("::")[-1]
        if bare in _CTRL or bare in ("lock_guard", "unique_lock",
                                     "scoped_lock"):
            return None
        # Heuristic: a definition head needs a return type (or be a
        # ctor/dtor whose name matches the class).
        ret_toks = [t for t in head[:k + 1]
                    if t.text not in _SKIP_HEAD and not
                    t.text.startswith("[[")]
        is_ctor = bool(cls_stack) and bare.lstrip("~") == cls_stack[-1].name
        out_of_line = "::" in full
        if not ret_toks and not is_ctor and not out_of_line:
            return None
        cls = None
        if out_of_line:
            cls_name = "::".join(full.split("::")[:-1])
            cls = "::".join(ns + [cls_name])
            # Out-of-line free functions (ns::f) are rare here; treating
            # the qualifier as a class is harmless for the checks.
        elif cls_stack:
            cls = cls_stack[-1].qual
        qual = (cls + "::" + bare) if cls else "::".join(ns + [bare])
        fn = FunctionInfo(bare, qual, cls, rel, head[0].line if head else 0)
        fn.ret = _type_str(ret_toks)
        fn.params = self._parse_params(head, j, i)
        self.p.note_signature(bare, qual, fn.ret)
        return fn

    @staticmethod
    def _ctor_init_start(texts):
        """For `Ctor(args) : inits... {` return the index of the `)`
        closing the parameter list; None when the head has no ctor
        colon."""
        depth = 0
        last_close = None
        for idx, t in enumerate(texts):
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
                if t == ")" and depth == 0:
                    last_close = idx
            elif t == ":" and depth == 0 and last_close is not None:
                return last_close
        return None

    @staticmethod
    def _parse_params(head, open_i, close_i):
        params = {}
        depth = 0
        cur = []
        def flush(cur):
            # last identifier (before a default '=') is the name
            stop = len(cur)
            for x, t in enumerate(cur):
                if t.text == "=":
                    stop = x
                    break
            ids = [t for t in cur[:stop] if t.kind == "id"]
            if len(ids) >= 2:
                # The trailing identifier is the parameter NAME — the type
                # string must not include it or receiver lookup breaks.
                ty = cur[:stop]
                if ty and ty[-1] is ids[-1]:
                    ty = ty[:-1]
                params[ids[-1].text] = _type_str(ty)
        for t in head[open_i + 1:close_i]:
            if t.text in "(<[{":
                depth += 1
            elif t.text in ")>]}":
                depth -= 1
            if t.text == "," and depth == 0:
                flush(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            flush(cur)
        return params

    # -- declaration statements ----------------------------------------------

    def _classify_decl(self, head, ns, cls_stack, rel):
        """A `...;` statement at namespace or class scope: record member
        variables, global variables, and Status-returning prototypes."""
        # Access labels ride along in the head (`private : Type name`):
        # strip them rather than losing the declaration.
        while len(head) >= 2 and head[0].text in ("public", "private",
                                                  "protected") and \
                head[1].text == ":":
            head = head[2:]
        texts = [t.text for t in head]
        if not texts or texts[0] in ("using", "typedef", "template",
                                     "friend", "static_assert"):
            return
        if "(" in texts:
            # function prototype: name before the first '(' at depth 0
            depth = 0
            for idx, t in enumerate(texts):
                if t in "<[{":
                    depth += 1
                elif t in ">]}":
                    depth -= 1
                elif t == "(" and depth == 0:
                    if idx > 0 and head[idx - 1].kind == "id":
                        bare = texts[idx - 1]
                        ret = _type_str([x for x in head[:idx - 1]
                                         if x.text not in _SKIP_HEAD])
                        scope = (cls_stack[-1].qual if cls_stack
                                 else "::".join(ns))
                        qual = (scope + "::" + bare) if scope else bare
                        self.p.note_signature(bare, qual, ret)
                    return
                elif t == ")" and depth == 0:
                    return
            return
        # variable declaration: `Type name;` / `Type name = init;` /
        # `Type name{init};`
        stop = len(head)
        for idx, t in enumerate(head):
            if t.text in ("=", "{"):
                stop = idx
                break
        ids = [t for t in head[:stop] if t.kind == "id"]
        if len(ids) < 2:
            return
        name = ids[-1].text
        ty = _type_str(head[:stop])
        ty = ty[: ty.rfind(name)] if name in ty else ty
        if cls_stack:
            cls_stack[-1].members[name] = ty.strip()
        elif ns:
            self.p.globals.add(name)


# ---------------------------------------------------------------------------
# clang frontend (optional, CI): same Program out of libclang cursors
# ---------------------------------------------------------------------------

class ClangFrontend:
    """libclang-based indexer. Produces the same Program the token
    frontend does, with compiler-grade name/type fidelity. Any failure
    raises; the driver catches and falls back to tokens."""

    def __init__(self, program, compile_commands):
        from clang import cindex  # noqa: raises ImportError without bindings
        self.cindex = cindex
        self.p = program
        self.args_for = {}
        if compile_commands:
            with open(compile_commands, encoding="utf-8") as f:
                for e in json.load(f):
                    path = os.path.normpath(
                        os.path.join(e["directory"], e["file"]))
                    cmd = e.get("command", "")
                    args = [a for a in cmd.split()[1:]
                            if not a.endswith(".o") and a not in ("-c", "-o")
                            and not a.endswith(".cpp")]
                    self.args_for[path] = args
        self.index = cindex.Index.create()

    def parse_file(self, path, rel):
        ck = self.cindex.CursorKind
        with open(path, encoding="utf-8", errors="replace") as f:
            self.p.raw_lines[rel] = f.read().splitlines()
        args = self.args_for.get(os.path.abspath(path),
                                 ["-std=c++20", "-I" + os.path.join(
                                     os.path.dirname(path), "..")])
        tu = self.index.parse(path, args=args)
        want = os.path.abspath(path)

        def visit(cur, ns, cls):
            for child in cur.get_children():
                loc = child.location
                if loc.file is None or os.path.abspath(loc.file.name) != want:
                    continue
                k = child.kind
                if k == ck.NAMESPACE:
                    visit(child, ns + [child.spelling], cls)
                elif k in (ck.CLASS_DECL, ck.STRUCT_DECL) and \
                        child.is_definition():
                    qual = "::".join(ns + ([cls.name] if cls else []) +
                                     [child.spelling])
                    ci = ClassInfo(child.spelling, qual, rel)
                    self.p.add_class(ci)
                    visit(child, ns, ci)
                elif k == ck.FIELD_DECL and cls is not None:
                    cls.members[child.spelling] = child.type.spelling
                elif k == ck.VAR_DECL and cls is None:
                    self.p.globals.add(child.spelling)
                elif k in (ck.CXX_METHOD, ck.FUNCTION_DECL, ck.CONSTRUCTOR,
                           ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE):
                    ret = child.result_type.spelling if \
                        k != ck.CONSTRUCTOR else ""
                    scope = cls.qual if cls else "::".join(ns)
                    qual = (scope + "::" if scope else "") + child.spelling
                    self.p.note_signature(child.spelling, qual, ret)
                    if child.is_definition():
                        fn = FunctionInfo(child.spelling, qual,
                                          cls.qual if cls else None, rel,
                                          loc.line)
                        fn.ret = ret
                        fn.end_line = child.extent.end.line
                        for arg in child.get_arguments():
                            fn.params[arg.spelling] = arg.type.spelling
                        body = None
                        for c2 in child.get_children():
                            if c2.kind == ck.COMPOUND_STMT:
                                body = c2
                        if body is not None:
                            fn.toks = [
                                Tok("id" if tok.kind.name == "IDENTIFIER"
                                    else ("str" if tok.kind.name == "LITERAL"
                                          and tok.spelling.startswith('"')
                                          else "p"),
                                    tok.spelling, tok.location.line)
                                for tok in tu.get_tokens(extent=body.extent)
                            ][1:-1]  # shed the outer braces
                        self.p.add_function(fn)
                    else:
                        visit(child, ns, cls)

        visit(tu.cursor, [], None)


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, file, line, message, func="", key=""):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.func = func          # qualified enclosing function
        self.key = key or message  # stable identity for the baseline

    def baseline_key(self):
        return f"{self.rule}|{self.file}|{self.func}|{self.key}"

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Body scanning helpers
# ---------------------------------------------------------------------------

def match_close(toks, i, open_ch="(", close_ch=")"):
    """Index of the token closing the bracket opened at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def enclosing_block_end(toks, i):
    """End index of the innermost brace block containing token i (end of
    function body if none)."""
    depth = 0
    n = len(toks)
    j = i
    while j < n:
        t = toks[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth < 0:
                return j
        j += 1
    return n - 1


def receiver_before(toks, i):
    """For a call `recv . name (` at name-index i, return the receiver
    expression tokens (best effort, right to left)."""
    j = i - 1
    if j < 0 or toks[j].text not in (".", "->"):
        return []
    j -= 1
    out = []
    depth = 0
    while j >= 0:
        t = toks[j].text
        if t in ")]":
            depth += 1
        elif t in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if toks[j].kind not in ("id",) and t not in (".", "->", "::",
                                                         "*", ")", "]"):
                break
            if t in (",", ";", "{", "}", "=", "return"):
                break
        out.append(toks[j])
        j -= 1
    out.reverse()
    return out


def expr_text(toks):
    return "".join(t.text for t in toks)


_WRAPPERS = ("std::unique_ptr", "std::shared_ptr", "unique_ptr",
             "shared_ptr", "std::optional", "optional")


def unwrap_type(ty):
    """unique_ptr<Impl> -> Impl, const X& -> X, etc."""
    ty = ty.replace("const ", "").replace("&", "").replace("*", "").strip()
    for w in _WRAPPERS:
        pre = w + " <"
        alt = w + "<"
        for p in (pre, alt):
            if ty.startswith(p) and ty.endswith(">"):
                return unwrap_type(ty[len(p):-1].strip())
    return ty.replace(" ", "")


class BodyModel:
    """Lazy per-function facts shared by the checks."""

    def __init__(self, program, fn):
        self.p = program
        self.fn = fn
        self._locals = None

    def locals(self):
        """Local declarations `Type name = ...;` / `Type& name = ...;`
        (reference bindings matter for mutex aliasing)."""
        if self._locals is not None:
            return self._locals
        out = dict(self.fn.params)
        toks = self.fn.toks
        i, n = 0, len(toks)
        stmt_start = 0
        while i < n:
            t = toks[i].text
            if t in (";", "{", "}"):
                stmt_start = i + 1
            elif t == "=" and i - stmt_start >= 2:
                head = toks[stmt_start:i]
                ids = [x for x in head if x.kind == "id"]
                if len(ids) >= 2 and all(
                        x.kind in ("id",) or x.text in
                        ("::", "<", ">", "&", "*", ",", "const")
                        for x in head):
                    name = ids[-1].text
                    ty = _type_str(head[:-1])
                    out.setdefault(name, ty)
            i += 1
        self._locals = out
        return out

    # -- type/identity resolution -------------------------------------------

    def type_of(self, expr_toks):
        """Best-effort static type of an expression: identifier chains,
        deref, and calls to indexed functions."""
        if not expr_toks:
            return None
        texts = [t.text for t in expr_toks]
        if texts[0] == "*":
            inner = self.type_of(expr_toks[1:])
            return inner
        if texts[0] == "this":
            base_ty = self.fn.cls
            rest = expr_toks[1:]
            return self._walk_members(base_ty, rest)
        # call: `name ( ... )` or `ns :: name ( ... )`
        if texts[-1] == ")" and "(" in texts:
            open_i = texts.index("(")
            callee = texts[open_i - 1] if open_i >= 1 else None
            if callee:
                fi = self._resolve_free(callee)
                if fi is not None:
                    return unwrap_type(fi.ret)
            return None
        # identifier chain a.b->c
        name = texts[0]
        ty = None
        loc = self.locals()
        if name in loc:
            ty = unwrap_type(loc[name])
        elif self.fn.cls:
            ci = self.p.lookup_class(self.fn.cls)
            if ci and name in ci.members:
                ty = unwrap_type(ci.members[name])
        if ty is None:
            return None
        return self._walk_members(ty, expr_toks[1:])

    def _walk_members(self, ty, rest):
        i = 0
        while i < len(rest) and ty is not None:
            if rest[i].text in (".", "->"):
                i += 1
                continue
            ci = self.p.lookup_class(ty)
            if ci is None or rest[i].text not in ci.members:
                return None
            ty = unwrap_type(ci.members[rest[i].text])
            i += 1
        return ty

    def _resolve_free(self, name):
        cands = self.p.by_name.get(name, [])
        if len(cands) == 1:
            return cands[0]
        return None

    def mutex_id(self, expr_toks):
        """Canonical identity of the mutex an expression names: its
        declaring class + member when resolvable, else file::expr."""
        texts = [t.text for t in expr_toks]
        # strip trailing member access to find owner
        if len(texts) >= 3 and texts[-2] in (".", "->"):
            owner_ty = self.type_of(expr_toks[:-2])
            if owner_ty:
                ci = self.p.lookup_class(owner_ty)
                if ci:
                    return f"{ci.qual}::{texts[-1]}"
        if len(texts) == 1:
            name = texts[0]
            if self.fn.cls:
                ci = self.p.lookup_class(self.fn.cls)
                if ci and name in ci.members:
                    return f"{ci.qual}::{name}"
            loc = self.locals()
            if name in loc:
                ty = unwrap_type(loc[name])
                return f"{ty or self.fn.file}::{name}"
        return f"{self.fn.file}::{expr_text(expr_toks)}"


# ---------------------------------------------------------------------------
# Lock model
# ---------------------------------------------------------------------------

GUARD_TYPES = ("lock_guard", "unique_lock", "scoped_lock", "shared_lock")


class LockSite:
    __slots__ = ("mutex", "guard_var", "start", "end", "line")

    def __init__(self, mutex, guard_var, start, end, line):
        self.mutex = mutex        # canonical mutex id
        self.guard_var = guard_var
        self.start = start        # token index where hold begins
        self.end = end            # token index where hold ends
        self.line = line


def lock_sites(model):
    """Every lock-acquisition site in a function body with its token
    hold-range."""
    fn = model.fn
    toks = fn.toks
    sites = []
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in GUARD_TYPES:
            # std::lock_guard<...> name(mutex);   (or CTAD, no <...>)
            j = i + 1
            if j < n and toks[j].text == "<":
                j = match_close(toks, j, "<", ">") + 1
            if j < n and toks[j].kind == "id":
                guard = toks[j].text
                j += 1
                if j < n and toks[j].text == "(":
                    close = match_close(toks, j)
                    args = split_args(toks, j, close)
                    # The hold ends at the guard's scope — or at an
                    # explicit guard.unlock(), whichever comes first
                    # (worker loops unlock before backend execution).
                    end = min(enclosing_block_end(toks, i),
                              unlock_end(model, None, close, var=guard))
                    for arg in args:
                        # std::adopt_lock / defer_lock etc. are ids too;
                        # only the first argument names the mutex for
                        # guard/unique; scoped_lock takes several.
                        if any(a.text in ("adopt_lock", "defer_lock",
                                          "try_to_lock") for a in arg):
                            continue
                        sites.append(LockSite(model.mutex_id(arg), guard,
                                              close + 1, end, t.line))
                        if t.text != "scoped_lock":
                            break
                    i = close
        elif t.text == "lock" and i >= 2 and toks[i - 1].text in (".", "->") \
                and i + 1 < n and toks[i + 1].text == "(":
            recv = receiver_before(toks, i)
            if recv:
                close = match_close(toks, i + 1)
                # `guard.lock()` re-acquires the guard's mutex, not a
                # mutex named `guard`.
                mid = None
                if len(recv) == 1:
                    for prior in sites:
                        if prior.guard_var == recv[0].text:
                            mid = prior.mutex
                            break
                if mid is None:
                    mid = model.mutex_id(recv)
                sites.append(LockSite(mid, None, close + 1,
                                      unlock_end(model, recv, close),
                                      t.line))
                i = close
        i += 1
    return sites


def unlock_end(model, recv, from_i, var=None):
    """Token index of `recv.unlock()` (or `var.unlock()`) after from_i
    (end of body if absent)."""
    toks = model.fn.toks
    want = var if var is not None else expr_text(recv)
    for i in range(from_i, len(toks)):
        if toks[i].text == "unlock" and i >= 2 and \
                toks[i - 1].text in (".", "->"):
            if expr_text(receiver_before(toks, i)) == want:
                return i
    return len(toks) - 1


def split_args(toks, open_i, close_i):
    args = []
    cur = []
    depth = 0
    for t in toks[open_i + 1:close_i]:
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        if t.text == "," and depth == 0:
            if cur:
                args.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        args.append(cur)
    return args


def call_sites(toks):
    """(index, name, receiver_toks, qualifier) for every call in a token
    stream."""
    out = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or i + 1 >= n or toks[i + 1].text != "(":
            continue
        if t.text in _CTRL or t.text in ("sizeof", "alignof", "decltype",
                                         "static_cast", "dynamic_cast",
                                         "reinterpret_cast", "const_cast",
                                         "defined", "assert"):
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev == "new":
            continue
        recv = receiver_before(toks, i) if prev in (".", "->") else []
        qual = ""
        if prev == "::" and i >= 2 and toks[i - 2].kind == "id":
            qual = toks[i - 2].text
        out.append((i, t.text, recv, qual))
    return out


# ---------------------------------------------------------------------------
# Interprocedural machinery
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, program):
        self.p = program
        self.models = {}
        self._acq_memo = {}
        self._blocking_memo = {}
        self._viol_memo = {}

    def model(self, fn):
        m = self.models.get(id(fn))
        if m is None:
            m = BodyModel(self.p, fn)
            self.models[id(fn)] = m
        return m

    def resolve_call(self, model, name, recv, qual):
        """FunctionInfo(s) a call may land in. Conservative: unresolved
        receivers fall back to bare-name lookup only when unambiguous
        and not an ambient STL-ish name."""
        if recv:
            ty = model.type_of(recv)
            if ty:
                hit = self.p.lookup_method(ty, name)
                return [hit] if hit else []
            if name in AMBIENT_NAMES:
                return []
        cands = self.p.by_name.get(name, [])
        if recv or qual:
            cands = [c for c in cands
                     if (not qual or (c.qual and qual in c.qual.split("::")))]
        if name in AMBIENT_NAMES:
            return []
        return cands if len(cands) <= 2 else []

    # -- transitive facts ----------------------------------------------------

    def mutexes_acquired(self, fn, depth=0, stack=None):
        """Canonical ids of every mutex fn may acquire, transitively."""
        key = id(fn)
        if key in self._acq_memo:
            return self._acq_memo[key]
        if depth > CALL_DEPTH:
            return {}
        stack = stack or set()
        if key in stack:
            return {}
        stack = stack | {key}
        model = self.model(fn)
        out = {}
        for s in lock_sites(model):
            out.setdefault(s.mutex, (fn.file, s.line))
        for i, name, recv, qual in call_sites(fn.toks):
            for callee in self.resolve_call(model, name, recv, qual):
                for m, site in self.mutexes_acquired(callee, depth + 1,
                                                     stack).items():
                    out.setdefault(m, site)
        if depth == 0:
            self._acq_memo[key] = out
        return out

    def blocking_reason(self, fn, depth=0, stack=None):
        """None, or a human chain explaining how fn blocks (cv wait /
        thread join), transitively."""
        key = id(fn)
        if key in self._blocking_memo:
            return self._blocking_memo[key]
        if depth > CALL_DEPTH:
            return None
        stack = stack or set()
        if key in stack:
            return None
        stack = stack | {key}
        toks = fn.toks
        reason = None
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in ("wait", "wait_for", "wait_until") and i >= 2 and \
                    toks[i - 1].text in (".", "->"):
                reason = f"{fn.qual} waits on a condition_variable " \
                         f"({fn.file}:{t.line})"
                break
            if t.text == "join" and i >= 2 and toks[i - 1].text in (".", "->"):
                reason = f"{fn.qual} joins a thread ({fn.file}:{t.line})"
                break
        if reason is None:
            model = self.model(fn)
            for i, name, recv, qual in call_sites(toks):
                for callee in self.resolve_call(model, name, recv, qual):
                    sub = self.blocking_reason(callee, depth + 1, stack)
                    if sub:
                        reason = f"{fn.qual} -> {sub}"
                        break
                if reason:
                    break
        if depth == 0:
            self._blocking_memo[key] = reason
        return reason

    def body_violations(self, fn, patterns, depth=0, stack=None):
        """First (line, what, chain) in fn (or transitively through its
        calls) matching one of `patterns`, a dict name->predicate over
        (toks, i)."""
        key = (id(fn), tuple(sorted(patterns)))
        if key in self._viol_memo:
            return self._viol_memo[key]
        if depth > CALL_DEPTH:
            return None
        stack = stack or set()
        if id(fn) in stack:
            return None
        stack = stack | {id(fn)}
        hits = scan_patterns(fn.toks, patterns)
        if hits:
            line, what = hits[0]
            result = (line, what, [f"{fn.qual} ({fn.file}:{line})"])
        else:
            result = None
            model = self.model(fn)
            for i, name, recv, qual in call_sites(fn.toks):
                for callee in self.resolve_call(model, name, recv, qual):
                    # The runtime checker's own instrumentation (note_*,
                    # contract) allocates its shadow registry lazily —
                    # behind `if constexpr (check::enabled())`, compiled
                    # out of release builds. Walking into it would flag
                    # every instrumented kernel, so the alloc walk treats
                    # check:: as allocation-free by design.
                    if "alloc" in patterns and \
                            "::check::" in f"::{callee.qual}":
                        continue
                    sub = self.body_violations(callee, patterns, depth + 1,
                                               stack)
                    if sub:
                        line0 = fn.toks[i].line
                        result = (sub[0], sub[1],
                                  [f"{fn.qual} ({fn.file}:{line0})"] + sub[2])
                        break
                if result:
                    break
        if depth == 0:
            self._viol_memo[key] = result
        return result


BARRIER_WRITES = ("apply_move", "store_label", "rebuild_tot")
STAMP_ARRAYS = ("last_moved", "dirty_round")
ALLOC_GROWTH = ("push_back", "emplace_back", "resize", "reserve")


def _pattern_at(toks, i, patterns):
    """What toks[i] does that one of `patterns` forbids, or None."""
    t = toks[i]
    if t.kind != "id":
        return None
    n = len(toks)
    called = i + 1 < n and toks[i + 1].text == "("
    member = i >= 1 and toks[i - 1].text in (".", "->")
    if "barrier" in patterns:
        if t.text in BARRIER_WRITES and member and called:
            return f"{t.text}() write"
        if t.text in STAMP_ARRAYS and i + 1 < n and toks[i + 1].text == "[":
            close = match_close(toks, i + 1, "[", "]")
            if close + 1 < n and toks[close + 1].text == "=":
                return f"{t.text}[...] = write"
    if "alloc" in patterns:
        if t.text == "new":
            return "operator new"
        if t.text in ("malloc", "calloc", "realloc") and called:
            return f"{t.text}()"
        if t.text in ALLOC_GROWTH and member and called:
            return f"{t.text}() growth"
    return None


def scan_patterns(toks, patterns):
    """[(line, what)] for every line of toks with a `patterns` hit (the
    first hit on each line)."""
    hits = []
    for i, t in enumerate(toks):
        if hits and hits[-1][0] == t.line:
            continue
        what = _pattern_at(toks, i, patterns)
        if what:
            hits.append((t.line, what))
    return hits


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_locks(an, fns, findings):
    """lock-cycle, blocking-under-lock, wait-holding-lock."""
    edges = {}  # (A, B) -> (file, line, chain)
    for fn in fns:
        model = an.model(fn)
        sites = lock_sites(model)
        toks = fn.toks
        for s in sites:
            held_others = [o for o in sites
                           if o is not s and o.start <= s.start and
                           s.start < o.end]
            # direct nesting edges
            for o in held_others:
                if o.mutex != s.mutex:
                    edges.setdefault((o.mutex, s.mutex),
                                     (fn.file, s.line, fn.qual))
            # events inside this hold range
            for i, name, recv, qual in call_sites(toks):
                if not (s.start <= i < s.end):
                    continue
                # condition_variable wait with OUR guard var releases
                # this mutex — not a block under it.
                if name in ("wait", "wait_for", "wait_until") and recv:
                    args_open = i + 1
                    close = match_close(toks, args_open)
                    first = split_args(toks, args_open, close)
                    lockvar = first[0][0].text if first and first[0] else ""
                    releasing = {o2.mutex for o2 in sites
                                 if o2.guard_var == lockvar}
                    still = [o2 for o2 in sites
                             if o2.start <= i < o2.end and
                             o2.mutex not in releasing]
                    for o2 in still:
                        findings.append(Finding(
                            "wait-holding-lock", fn.file, toks[i].line,
                            f"condition_variable::{name}({lockvar}) while "
                            f"also holding {o2.mutex} (acquired line "
                            f"{o2.line}) — the wait only releases its own "
                            "mutex",
                            fn.qual, key=f"{o2.mutex}|{name}"))
                    continue
                for callee in an.resolve_call(model, name, recv, qual):
                    # lock-order edges through the call
                    for m, site in an.mutexes_acquired(callee).items():
                        if m != s.mutex:
                            edges.setdefault(
                                (s.mutex, m),
                                (fn.file, toks[i].line,
                                 f"{fn.qual} -> {callee.qual}"))
                    reason = an.blocking_reason(callee)
                    if reason:
                        findings.append(Finding(
                            "blocking-under-lock", fn.file, toks[i].line,
                            f"call to {callee.qual}() while holding "
                            f"{s.mutex} (acquired line {s.line}) blocks: "
                            f"{reason}",
                            fn.qual, key=f"{s.mutex}|{callee.qual}"))
    # cycle detection over the order graph
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
    seen_cycles = set()
    for start in sorted(adj):
        path = []
        on_path = set()

        def dfs(u):
            if u in on_path:
                k = path.index(u)
                cyc = tuple(sorted(path[k:]))
                if cyc not in seen_cycles:
                    seen_cycles.add(cyc)
                    chain = path[k:] + [u]
                    file, line, where = edges[(path[k], path[k + 1]
                                               if k + 1 < len(path) else u)]
                    findings.append(Finding(
                        "lock-cycle", file, line,
                        "lock-order cycle: " + " -> ".join(chain) +
                        f" (one edge from {where}; a concurrent reverse "
                        "acquisition deadlocks)",
                        where, key="|".join(cyc)))
                return
            if u not in adj:
                return
            on_path.add(u)
            path.append(u)
            for v in sorted(adj[u]):
                dfs(v)
            path.pop()
            on_path.discard(u)

        dfs(start)


def check_status(an, fns, findings):
    """status-discard, unchecked-value."""
    p = an.p
    for fn in fns:
        toks = fn.toks
        model = an.model(fn)
        n = len(toks)
        checked = set()   # identifiers consulted via .ok()/.status()
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text in ("ok", "status") and i >= 2 and \
                    toks[i - 1].text in (".", "->"):
                recv = receiver_before(toks, i)
                if len(recv) == 1:
                    checked.add(recv[0].text)
        for i, name, recv, qual in call_sites(toks):
            # ---- status-discard: expression-statement call ----
            prev = toks[i - 1].text if i > 0 else ";"
            stmt_head = prev in (";", "{", "}") or \
                (prev in (".", "->") and _stmt_leading(toks, i))
            if stmt_head:
                close = match_close(toks, i + 1)
                if close + 1 < n and toks[close + 1].text == ";":
                    if _returns_status(p, model, name, recv, qual):
                        findings.append(Finding(
                            "status-discard", fn.file, toks[i].line,
                            f"result of {name}() (util::Status/StatusOr) "
                            "is discarded — check .ok() or propagate",
                            fn.qual, key=name))
            # ---- unchecked-value ----
            if name == "value" and recv:
                base = _value_base(recv)
                if base is None:
                    findings.append(Finding(
                        "unchecked-value", fn.file, toks[i].line,
                        ".value() on a temporary StatusOr — it can never "
                        "have been checked; bind it and test .ok() first",
                        fn.qual, key="temporary"))
                elif base not in checked:
                    findings.append(Finding(
                        "unchecked-value", fn.file, toks[i].line,
                        f".value() on '{base}' with no .ok()/.status() "
                        "consultation of it anywhere in this function — "
                        "StatusOr::value() throws on error",
                        fn.qual, key=base))


def _stmt_leading(toks, i):
    """True when the receiver chain before a `.`-call starts a
    statement (so the whole statement is the call)."""
    recv = receiver_before(toks, i)
    if not recv:
        return False
    start = i - 1 - len(recv)  # token before the receiver chain
    if start < 0:
        return True
    return toks[start].text in (";", "{", "}")


def _value_base(recv):
    """Identifier a `.value()` receiver refers to: `x`, `std::move(x)`;
    None for temporaries like `f(...)`."""
    texts = [t.text for t in recv]
    ids = [t.text for t in recv if t.kind == "id"]
    if len(recv) == 1 and recv[0].kind == "id":
        return recv[0].text
    if "move" in ids and texts[-1] == ")":
        inner = [t for t in recv if t.kind == "id" and t.text != "move" and
                 t.text != "std"]
        if len(inner) == 1:
            return inner[0].text
    if texts and texts[-1] == ")":
        return None  # call temporary
    if ids:
        return ids[-1]
    return None


def _returns_status(p, model, name, recv, qual):
    if recv:
        ty = model.type_of(recv)
        if ty:
            hit = p.lookup_method(ty, name)
            if hit is not None:
                return "Status" in hit.ret
            # declared-but-not-defined methods: fall through to name set
    if name in AMBIENT_NAMES:
        return False
    if name in p.status_fns:
        cands = p.by_name.get(name, [])
        if cands and not all("Status" in c.ret for c in cands):
            return False  # ambiguous bare name
        return True
    return False


ARENA_SOURCES = ("alloc", "buffer")
ARENA_DEF_FILES = ("workspace.hpp", "workspace.cpp", "scratch.hpp")


def check_arena_escape(an, fns, findings):
    p = an.p
    for fn in fns:
        if os.path.basename(fn.file) in ARENA_DEF_FILES:
            continue  # the allocators themselves
        toks = fn.toks
        n = len(toks)
        tainted = set()
        static_locals = set()
        ci = p.lookup_class(fn.cls) if fn.cls else None
        # Pre-pass: locals declared `static Type name...;` stay alive
        # across epochs even when assigned in a later statement. Every
        # local declaration shadows a member or global of its name from
        # there on, as a parameter does throughout the body.
        declared_at = {}
        stmt = []
        for idx, t in enumerate(toks):
            if t.text in (";", "{", "}"):
                if stmt and stmt[0].text == "static":
                    ids = [x.text for x in stmt if x.kind == "id"]
                    if len(ids) >= 2:
                        static_locals.add(ids[-1])
                name = _declared_name(stmt)
                if name:
                    declared_at.setdefault(name, idx)
                stmt = []
            else:
                stmt.append(t)

        def shadowed(name, at):
            return name in fn.params or declared_at.get(name, n) <= at

        i = 0
        while i < n:
            t = toks[i]
            # `lhs = <expr containing arena source>` or decl init
            if t.text == "=" and i + 1 < n:
                stmt_end = i
                while stmt_end < n and toks[stmt_end].text != ";":
                    stmt_end += 1
                rhs = toks[i + 1:stmt_end]
                rhs_src = _arena_source_in(rhs, tainted)
                if rhs_src:
                    stmt_start = i - 1
                    while stmt_start >= 0 and \
                            toks[stmt_start].text not in (";", "{", "}"):
                        stmt_start -= 1
                    lhs = toks[stmt_start + 1:i]
                    lhs_ids = [x.text for x in lhs if x.kind == "id"]
                    target = lhs_ids[-1] if lhs_ids else ""
                    lhs_texts = [x.text for x in lhs]
                    declares = len(lhs_ids) >= 2 or "auto" in lhs_texts
                    local = declares or shadowed(target, stmt_start)
                    is_member = ci is not None and target in ci.members \
                        and not local
                    is_this = "this" in lhs_texts
                    is_global = target in p.globals and not local
                    is_static = "static" in lhs_texts or \
                        target in static_locals
                    if is_member or is_this or is_global or is_static:
                        where = ("member" if (is_member or is_this) else
                                 "static" if is_static else "global")
                        findings.append(Finding(
                            "arena-escape", fn.file, t.line,
                            f"arena/workspace-backed span ({rhs_src}) "
                            f"stored into a {where} '{target}' — the "
                            "backing memory goes to the slot's next user "
                            "or is regrown, this pointer does not follow",
                            fn.qual, key=f"{where}|{target}"))
                    else:
                        tainted.add(target)
                    i = stmt_end
                    continue
                # propagation: alias of a tainted local
                rhs_ids = [x.text for x in rhs if x.kind == "id"]
                if rhs_ids and rhs_ids[0] in tainted and len(rhs_ids) <= 2:
                    lhs = toks[max(0, i - 4):i]
                    lhs_ids = [x.text for x in lhs if x.kind == "id"]
                    if lhs_ids:
                        target = lhs_ids[-1]
                        if ci is not None and target in ci.members and \
                                not shadowed(target, i):
                            findings.append(Finding(
                                "arena-escape", fn.file, t.line,
                                f"arena-derived value '{rhs_ids[0]}' stored "
                                f"into member '{target}' — outlives the "
                                "phase that drew it",
                                fn.qual, key=f"member|{target}"))
                        else:
                            tainted.add(target)
            i += 1


_NOT_DECL_HEAD = frozenset({"return", "throw", "delete", "goto", "case",
                            "else", "do", "co_return", "co_yield",
                            "using", "typedef"})


def _declared_name(stmt):
    """The variable a `Type name [= init]` statement declares, or None:
    two or more words before any `=`, joined only by type punctuation."""
    head = []
    for t in stmt:
        if t.text == "=":
            break
        head.append(t)
    words = [t.text for t in head
             if re.fullmatch(r"[A-Za-z_]\w*", t.text)]
    if len(words) < 2 or words[0] in _NOT_DECL_HEAD:
        return None
    if not all(re.fullmatch(r"[A-Za-z_]\w*", t.text) or
               t.text in ("::", "<", ">", "&", "&&", "*", ",")
               for t in head):
        return None
    return words[-1]


def _arena_source_in(toks, tainted):
    """Does a token run contain a direct arena allocation (or a .data()
    off a tainted local)?"""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in ARENA_SOURCES and i >= 1 and \
                toks[i - 1].text in (".", "->"):
            j = i + 1
            if j < n and toks[j].text == "<":
                j = match_close(toks, j, "<", ">") + 1
            if j < n and toks[j].text == "(":
                return f".{t.text}()"
        if t.kind == "id" and t.text == "data" and i >= 2 and \
                toks[i - 1].text in (".", "->") and \
                toks[i - 2].kind == "id" and toks[i - 2].text in tainted:
            return f"{toks[i - 2].text}.data()"
    return None


DEVICE_RECV_RE = re.compile(r"(^|[.>:])device_?$|^ctx$|device\(\)$")


def _fanout_regions(toks, names):
    """(call_index, name, body_start, body_end) for each call to one of
    `names` whose arguments contain a lambda body (the fan-out region).
    Bodiless prototypes (a `;` before any `{` inside the args) are
    skipped."""
    out = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in names:
            continue
        j = i + 1
        if j < n and toks[j].text == "<":
            j = match_close(toks, j, "<", ">") + 1
        if j >= n or toks[j].text != "(":
            continue
        close = match_close(toks, j)
        has_brace = any(x.text == "{" for x in toks[j:close])
        if has_brace:
            out.append((i, t.text, j + 1, close))
    return out


def check_fanout(an, fns, findings):
    """shard-barrier and kernel-alloc, transitively; unpaired-launch via
    span live-range."""
    for fn in fns:
        toks = fn.toks
        model = an.model(fn)

        # ---- spans alive per token index (for unpaired-launch) ----
        span_ranges = []
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "Span" and i >= 2 and \
                    toks[i - 1].text == "::" and toks[i - 2].text == "obs":
                span_ranges.append((i, enclosing_block_end(toks, i)))
            if t.kind == "id" and t.text == "begin_span":
                span_ranges.append((i, len(toks) - 1))

        def spanned(i):
            return any(s <= i <= e for s, e in span_ranges)

        # ---- run_lanes regions: shard-barrier ----
        for ci, name, b0, b1 in _fanout_regions(toks, ("run_lanes",)):
            region = toks[b0:b1]
            for line, what in scan_patterns(region, {"barrier"}):
                findings.append(Finding(
                    "shard-barrier", fn.file, line,
                    f"'{what}' inside a run_lanes() fan-out — cross-shard "
                    "state is read-only until the join barrier; buffer the "
                    "mutation as a proposal",
                    fn.qual, key=what))
            for i, cname, recv, qual in call_sites(region):
                for callee in an.resolve_call(model, cname, recv, qual):
                    sub = an.body_violations(callee, {"barrier"})
                    if sub:
                        findings.append(Finding(
                            "shard-barrier", fn.file, region[i].line,
                            f"run_lanes() body calls {cname}() which "
                            f"performs '{sub[1]}' "
                            f"({' -> '.join(sub[2])}) — a cross-shard "
                            "write hidden behind a call is still a write "
                            "before the barrier",
                            fn.qual, key=f"deep|{cname}|{sub[1]}"))

        # ---- Device::launch / for_each regions ----
        launchish = _fanout_regions(toks, ("launch", "for_each",
                                           "for_each_worker"))
        for ci, name, b0, b1 in launchish:
            recv = receiver_before(toks, ci)
            recv_txt = expr_text(recv)
            ty = model.type_of(recv) if recv else None
            devicey = ty == "Device" or bool(DEVICE_RECV_RE.search(recv_txt))
            if not devicey:
                continue
            region = toks[b0:b1]
            for line, what in scan_patterns(region, {"alloc"}):
                findings.append(Finding(
                    "kernel-alloc", fn.file, line,
                    f"'{what}' inside a kernel body — draw from the "
                    "Workspace instead",
                    fn.qual, key=what))
            for i, cname, crecv, qual in call_sites(region):
                # Only follow named helpers, not the ambient surface.
                for callee in an.resolve_call(model, cname, crecv, qual):
                    if os.path.basename(callee.file) in ARENA_DEF_FILES:
                        continue
                    sub = an.body_violations(callee, {"alloc"})
                    if sub:
                        findings.append(Finding(
                            "kernel-alloc", fn.file, region[i].line,
                            f"kernel body calls {cname}() which allocates: "
                            f"'{sub[1]}' ({' -> '.join(sub[2])})",
                            fn.qual, key=f"deep|{cname}|{sub[1]}"))
            if name == "launch" and not spanned(ci):
                findings.append(Finding(
                    "unpaired-launch", fn.file, toks[ci].line,
                    "Device::launch with no obs::Span alive in an "
                    "enclosing scope (and no begin_span earlier in "
                    f"{fn.name}) — kernels must be attributable in phase "
                    "tables and traces",
                    fn.qual, key=f"{recv_txt}|{toks[ci].line - fn.line}"))


WORKER_FANOUTS = ("parallel_for", "for_each_worker", "launch")
COMPOUND_UPDATES = ("+=", "-=", "++", "--")


def _lambda_worker(toks, b0, b1):
    """Name of the `unsigned` parameter of the first lambda in the call
    arguments toks[b0:b1], or None (unnamed, or no such parameter)."""
    for j in range(b0, b1):
        if toks[j].text != "{":
            continue
        k = j - 1
        while k > b0 and toks[k].text in ("mutable", "noexcept"):
            k -= 1
        if toks[k].text != ")":
            continue
        o = _match_open(toks, k)
        if o <= b0 or toks[o - 1].text != "]":
            continue  # a brace-init argument, not a lambda body
        params, cur = [], []
        for t in toks[o + 1:k]:
            if t.text == ",":
                params.append(cur)
                cur = []
            else:
                cur.append(t.text)
        params.append(cur)
        for words in params:
            if "unsigned" in words and words[-1] not in (
                    "unsigned", "int", "long", "short", "char"):
                return words[-1]
        return None
    return None


def _indexes_worker(index, worker):
    """Is the index expression the worker id (`w` or `ctx.worker()`)?"""
    if worker is not None and index == [worker]:
        return True
    return len(index) == 5 and index[1] in (".", "->") and \
        index[2:] == ["worker", "(", ")"]


def check_worker_partial(fns, findings):
    for fn in fns:
        toks = fn.toks
        for _, name, b0, b1 in _fanout_regions(toks, WORKER_FANOUTS):
            worker = _lambda_worker(toks, b0, b1)
            reported = set()
            for i in range(b0, b1):
                if toks[i].text != "[":
                    continue
                close = match_close(toks, i, "[", "]")
                index = [t.text for t in toks[i + 1:close]]
                if not _indexes_worker(index, worker):
                    continue
                # Walk back over the postfix expression to see a prefix
                # ++/-- applied to the whole element.
                s = i - 1
                while s >= b0:
                    t = toks[s].text
                    if t in ("]", ")"):
                        s = _match_open(toks, s) - 1
                    elif toks[s].kind == "id" or t in (".", "->", "::"):
                        s -= 1
                    else:
                        break
                after = toks[close + 1].text if close + 1 < b1 else ""
                op = after if after in COMPOUND_UPDATES else (
                    toks[s].text if s >= b0 and
                    toks[s].text in ("++", "--") else None)
                line = toks[i].line
                if op is None or line in reported:
                    continue
                reported.add(line)
                elem = expr_text(toks[s + 1:close + 1])
                findings.append(Finding(
                    "worker-partial", fn.file, line,
                    f"'{elem}' {op} inside a {name}() body — workers "
                    "write each other's cache lines once per element and "
                    "the sum follows the schedule; return a chunk partial "
                    "from prim::reduce",
                    fn.qual, key=f"{elem}{op}"))


def _match_open(toks, i):
    """Index of the token opening the bracket that toks[i] closes."""
    close = toks[i].text
    open_ch = "[" if close == "]" else "("
    depth = 0
    while i >= 0:
        if toks[i].text == close:
            depth += 1
        elif toks[i].text == open_ch:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return 0


INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<([^>]+)>")
INTRIN_HEADER_RE = re.compile(r"(imm|x86|avx|emm|smm|tmm)intrin\.h")
INTRIN_CALL_RE = re.compile(r"_mm\d*_\w+")
INTRIN_TYPE_RE = re.compile(r"__m(128|256|512)[id]?")
ATOMIC_NAMES = frozenset({"atomic", "atomic_ref", "atomic_flag"})
FILE_RULE_MESSAGES = {
    "raw-atomic": "raw std::atomic outside src/simt/ — use simt::atomic_*",
    "raw-intrinsic": "raw vector intrinsic outside src/simt/ — use the "
                     "simt::vec primitives",
    "seq-cst": "seq_cst ordering on the device hot path — the model is "
               "relaxed/acq-rel",
    "shard-ghost": "direct element access to the exchanged shard arrays — "
                   "go through the GlobalState accessors (shard/halo.hpp)",
}


def file_token_hits(rel, lines):
    """(rule, line, what) for the FILE_RULES, the first hit per rule and
    line. The lexer drops preprocessor lines, so the #include forms are
    matched on the raw lines."""
    simt = "simt" in rel.replace(os.sep, "/").split("/")
    hits = {}

    def hit(rule, line, what):
        hits.setdefault((rule, line), what)

    if not simt:
        for lineno, text in enumerate(lines, 1):
            m = INCLUDE_RE.match(text)
            if m and m.group(1) == "atomic":
                hit("raw-atomic", lineno, "#include <atomic>")
            elif m and INTRIN_HEADER_RE.fullmatch(m.group(1)):
                hit("raw-intrinsic", lineno, f"#include <{m.group(1)}>")
    ghost_ok = os.path.basename(rel) == "halo.hpp"
    toks = tokenize("\n".join(lines))
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        scoped = i >= 2 and toks[i - 1].text == "::"
        if not simt and t.text in ATOMIC_NAMES and scoped and \
                toks[i - 2].text == "std":
            hit("raw-atomic", t.line, f"std::{t.text}")
        if not simt and ((INTRIN_CALL_RE.fullmatch(t.text) and nxt == "(")
                         or INTRIN_TYPE_RE.fullmatch(t.text)):
            hit("raw-intrinsic", t.line, t.text)
        if t.text == "memory_order_seq_cst" or (
                t.text == "seq_cst" and scoped and
                toks[i - 2].text == "memory_order"):
            hit("seq-cst", t.line, "memory_order_seq_cst")
        if not ghost_ok and t.text in ("labels_raw", "tot_raw") and nxt == "[":
            hit("shard-ghost", t.line, f"{t.text}[...]")
    return [(rule, line, what) for (rule, line), what in hits.items()]


def check_files(program, rules, findings):
    """raw-atomic, raw-intrinsic, seq-cst, shard-ghost over every file."""
    for rel, lines in program.raw_lines.items():
        for rule, line, what in file_token_hits(rel, lines):
            if rule in rules:
                findings.append(Finding(
                    rule, rel, line,
                    f"'{what}': {FILE_RULE_MESSAGES[rule]}", key=what))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# Repo root (parent of tools/): findings and baseline keys carry paths
# relative to it so they are stable no matter where glint is invoked
# from (ctest runs in the build tree).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def repo_rel(path):
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return path if rel.startswith("..") else rel


def collect(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXT):
                        files.append(os.path.join(root, name))
        else:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def build_program(files, frontend, compile_commands, notes):
    p = Program()
    fe = None
    if frontend in ("auto", "clang"):
        try:
            fe = ClangFrontend(p, compile_commands)
            notes.append("frontend: clang (libclang)")
        except Exception as e:  # ImportError, bad db, API drift
            if frontend == "clang":
                print(f"error: clang frontend unavailable: {e}",
                      file=sys.stderr)
                sys.exit(2)
            notes.append(f"frontend: tokens (clang unavailable: "
                         f"{e.__class__.__name__})")
    else:
        notes.append("frontend: tokens")
    if fe is None:
        fe = TokenFrontend(p)
    for path in files:
        rel = repo_rel(path)
        try:
            fe.parse_file(path, rel)
        except Exception as e:
            if isinstance(fe, TokenFrontend):
                raise
            notes.append(f"clang failed on {rel} ({e.__class__.__name__}); "
                         "re-indexing with tokens")
            p2 = Program()
            tf = TokenFrontend(p2)
            for path2 in files:
                tf.parse_file(path2, repo_rel(path2))
            return p2
    return p


def load_baseline(path):
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {e["key"]: e.get("why", "") for e in data.get("suppressions", [])}


def write_baseline(path, findings):
    entries = [{"key": f.baseline_key(),
                "rule": f.rule,
                "file": f.file,
                "why": "TODO: justify or fix"}
               for f in findings]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"comment": "glint baseline — every entry must carry a "
                              "justification in 'why'; regenerate with "
                              "--write-baseline after refactors",
                   "suppressions": entries}, f, indent=2)
        f.write("\n")


def to_sarif(findings):
    rules = sorted({f.rule for f in findings} | set(ALL_RULES))
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "glint",
                "informationUri": "tools/glint.py",
                "rules": [{"id": r} for r in rules],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": f.file.replace(os.sep, "/")},
                    "region": {"startLine": max(1, f.line)},
                }}],
            } for f in findings],
        }],
    }


def suppressed_inline(program, f):
    lines = program.raw_lines.get(f.file)
    if not lines or f.line - 1 >= len(lines):
        return False
    m = SUPPRESS_RE.search(lines[f.line - 1])
    return bool(m) and m.group(1) == f.rule


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+",
                    help="files or directories to index AND report on")
    ap.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                    default="auto")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for the clang frontend")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run "
                         f"(default all: {','.join(ALL_RULES)})")
    ap.add_argument("--baseline", default=None,
                    help="baseline suppression JSON (tools/glint_baseline"
                         ".json)")
    ap.add_argument("--write-baseline", default=None, metavar="PATH",
                    help="write current findings as a fresh baseline and "
                         "exit 0")
    ap.add_argument("--changed-files", nargs="*", default=None,
                    help="only report findings anchored in these files "
                         "(the full paths are still indexed for "
                         "interprocedural context)")
    ap.add_argument("--sarif", default=None, metavar="OUT",
                    help="also write SARIF 2.1.0 to OUT")
    ap.add_argument("--expect-violations", action="store_true",
                    help="fixture mode: succeed iff violations ARE found "
                         "(with --rules: every listed rule must fire)")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    rules = tuple(args.rules.split(",")) if args.rules else ALL_RULES
    for r in rules:
        if r not in ALL_RULES:
            print(f"error: unknown rule '{r}'", file=sys.stderr)
            return 2

    files = collect(args.paths)
    if not files:
        print("error: no sources under the given paths", file=sys.stderr)
        return 2

    notes = []
    program = build_program(files, args.frontend, args.compile_commands,
                            notes)
    an = Analyzer(program)
    fns = program.functions

    findings = []
    if {"lock-cycle", "blocking-under-lock",
            "wait-holding-lock"} & set(rules):
        check_locks(an, fns, findings)
    if {"status-discard", "unchecked-value"} & set(rules):
        check_status(an, fns, findings)
    if "arena-escape" in rules:
        check_arena_escape(an, fns, findings)
    if {"shard-barrier", "kernel-alloc", "unpaired-launch"} & set(rules):
        check_fanout(an, fns, findings)
    if "worker-partial" in rules:
        check_worker_partial(fns, findings)
    if set(FILE_RULES) & set(rules):
        check_files(program, rules, findings)

    findings = [f for f in findings if f.rule in rules]
    # dedupe (transitive walks can reach one site twice)
    uniq = {}
    for f in findings:
        uniq.setdefault((f.rule, f.file, f.line, f.key), f)
    findings = sorted(uniq.values(),
                      key=lambda f: (f.file, f.line, f.rule))

    findings = [f for f in findings if not suppressed_inline(program, f)]

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"baseline written: {len(findings)} entr"
              f"{'y' if len(findings) == 1 else 'ies'} -> "
              f"{args.write_baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    live, baselined = [], []
    for f in findings:
        if f.baseline_key() in baseline:
            baselined.append(f)
        else:
            live.append(f)

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(to_sarif(live), fh, indent=2)
            fh.write("\n")

    if args.changed_files is not None:
        changed = {repo_rel(c) for c in args.changed_files}
        live = [f for f in live if f.file in changed]

    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for f in live:
        print(f)
    if args.verbose:
        for f in baselined:
            print(f"baselined: {f}  (why: "
                  f"{baseline[f.baseline_key()]})")

    if args.expect_violations:
        hit_rules = {f.rule for f in live}
        missing = [r for r in rules if r not in hit_rules] \
            if args.rules else ([] if live else list(rules))
        if live and not missing:
            print(f"fixture OK: {len(live)} violation(s) caught "
                  f"({', '.join(sorted(hit_rules))})")
            return 0
        print("error: fixture did not trip "
              f"{', '.join(missing) or 'any rule'} — the analyzer has "
              "rotted", file=sys.stderr)
        return 1

    if live:
        print(f"\n{len(live)} violation(s) in {len(files)} file(s)"
              + (f" ({len(baselined)} baselined)" if baselined else ""),
              file=sys.stderr)
        return 1
    print(f"{len(files)} file(s) clean"
          + (f" ({len(baselined)} baselined)" if baselined else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
