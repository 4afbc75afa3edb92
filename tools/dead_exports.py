#!/usr/bin/env python3
"""Flag library exports that nothing but tests calls.

Scans every ``val``/``external`` in ``lib/**/*.mli`` and looks for a
caller in ``lib/``, ``bin/``, ``perfbench/`` or ``examples/`` outside
the value's own module.  A value counts as called in a file when the
file names it qualified (``Module.value``, also through a
``module X = ...Module`` alias) or opens the module (``open``,
``let open``, ``Module.( ... )``, ``include``) and names it bare.
Comments and string literals are ignored.

The scan is a heuristic; the compiler has the last word.  Values it
flags that are in fact used, or that are kept on purpose, go in
``tools/dead_exports.allow`` with a one-line reason.

Usage:
  python3 tools/dead_exports.py            # exit 1 on an unlisted value
  python3 tools/dead_exports.py --report   # every flagged value, with
                                           # its test callers

Exit status 1 also when an allowlist entry no longer names a flagged
value, so the list cannot go stale.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "perfbench", "examples"]
TEST_DIRS = ["test"]
ALLOW = os.path.join(ROOT, "tools", "dead_exports.allow")

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"


CHAR = re.compile(r"'(\\[0-9]{3}|\\x[0-9a-fA-F]{2}|\\.|[^\\'])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip(src):
    """Blank out comments (nested) and string/char literals."""
    out = []
    i, n, depth = 0, len(src), 0

    def string_end(i):
        j = i + 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1

    while i < n:
        c = src[i]
        if src.startswith("(*", i) and not src.startswith("(*)", i):
            depth += 1
            i += 2
        elif depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
            elif c == '"':
                i = string_end(i)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif c == '"':
            out.append('""')
            i = string_end(i)
        elif QUOTED.match(src, i):
            close = "|" + QUOTED.match(src, i).group(1) + "}"
            j = src.find(close, i)
            out.append('""')
            i = n if j < 0 else j + len(close)
        elif c == "'" and CHAR.match(src, i):
            out.append("' '")
            i = CHAR.match(src, i).end()
        else:
            out.append(c)
            i += 1
    return "".join(out)


def exports(path):
    """(submodule path, value name) for every value an .mli exports.
    Values inside [module type] bodies are skipped: they describe
    arguments, not exports."""
    toks = re.findall(r"\(\s*[^\sA-Za-z0-9_()]+\s*\)|" + IDENT + r"|\S",
                      strip(open(path).read()))
    stack = []          # one entry per open sig/struct/object/begin
    pending = None      # ("mod", name) or ("modtype",) awaiting its sig
    out = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "module":
            if i + 1 < len(toks) and toks[i + 1] == "type":
                pending = ("modtype",)
                i += 2
                continue
            if i + 1 < len(toks) and toks[i + 1] == "rec":
                i += 1
            pending = ("mod", toks[i + 1]) if i + 1 < len(toks) else None
            i += 2
            continue
        if t in ("sig", "struct", "object", "begin"):
            if pending and pending[0] == "mod":
                stack.append(("mod", pending[1]))
            elif pending and pending[0] == "modtype":
                stack.append(("skip",))
            else:
                stack.append(("other",))
            pending = None
        elif t == "end":
            if stack:
                stack.pop()
        elif t in ("val", "external") and not any(
                s[0] == "skip" for s in stack):
            name = toks[i + 1]
            if name.startswith("("):
                name = re.sub(r"\s+", "", name)
            path_ = [s[1] for s in stack if s[0] == "mod"]
            # [val] directly inside an unnamed sig/object is not an export
            if not any(s[0] == "other" for s in stack):
                out.append((path_, name))
            i += 2
            continue
        elif t in ("type", "exception", "include", "open", "class"):
            pending = None
        i += 1
    return out


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def ocaml_files(dirs):
    for d in dirs:
        for root, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs[:] = [s for s in subdirs if not s.startswith((".", "_"))]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(root, f)


class Source:
    def __init__(self, path):
        self.path = path
        self.text = strip(open(path).read())
        self.aliases = {}
        for m in re.finditer(r"\bmodule\s+(" + IDENT + r")\s*=\s*((?:"
                             + IDENT + r"\s*\.\s*)*" + IDENT + r")",
                             self.text):
            last = re.split(r"\s*\.\s*", m.group(2))[-1]
            self.aliases.setdefault(last, set()).add(m.group(1))
        self.opened = set()
        for m in re.finditer(r"\b(?:open!?|include)\s+((?:" + IDENT
                             + r"\s*\.\s*)*" + IDENT + r")", self.text):
            self.opened.add(re.split(r"\s*\.\s*", m.group(1))[-1])
        for m in re.finditer(r"\b(" + IDENT + r")\s*\.\s*\(", self.text):
            self.opened.add(m.group(1))
        self.words = set(re.findall(IDENT, self.text))

    def calls(self, mod, name):
        """Does this file name [name] through [mod], the innermost
        module holding it (or an alias of that module)?"""
        if name.startswith("("):
            # An operator: any use of its symbol counts.
            return name[1:-1] in self.text
        if name not in self.words:
            return False
        qs = {mod} | self.aliases.get(mod, set())
        pat = r"\b(?:" + "|".join(sorted(qs)) + r")\s*\.\s*" + \
            re.escape(name) + r"\b"
        if re.search(pat, self.text):
            return True
        return bool(qs & self.opened) and re.search(
            r"(?<![.\w'])" + re.escape(name) + r"\b", self.text) is not None


def scan():
    callers = [Source(p) for p in ocaml_files(CALLER_DIRS)]
    tests = [Source(p) for p in ocaml_files(TEST_DIRS)]
    flagged = []
    for mli in ocaml_files(["lib"]):
        if not mli.endswith(".mli"):
            continue
        mod = module_name(mli)
        own = {mli, mli[:-1]}
        lib = os.path.basename(os.path.dirname(mli))
        for sub, name in exports(mli):
            qual = sub[-1] if sub else mod
            key = "%s/%s.%s" % (lib, ".".join([mod] + sub), name)
            if any(s.calls(qual, name) for s in callers if s.path not in own):
                continue
            users = sorted(os.path.relpath(s.path, ROOT) for s in tests
                           if s.calls(qual, name))
            flagged.append((key, users))
    return flagged


def load_allow():
    allow = {}
    if not os.path.exists(ALLOW):
        return allow
    for ln, line in enumerate(open(ALLOW), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            sys.exit("%s:%d: %s has no reason" % (ALLOW, ln, key))
        allow[key] = reason.strip()
    return allow


def main():
    flagged = scan()
    if "--report" in sys.argv[1:]:
        for key, users in flagged:
            print("%-50s %s" % (key, " ".join(users) or "(no caller)"))
        print("%d flagged" % len(flagged))
        return 0
    allow = load_allow()
    keys = {k for k, _ in flagged}
    bad = [(k, u) for k, u in flagged if k not in allow]
    stale = sorted(k for k in allow if k not in keys)
    for key, users in bad:
        print("dead export: %s (test callers: %s)"
              % (key, " ".join(users) or "none"))
    for key in stale:
        print("stale allowlist entry: %s" % key)
    if bad or stale:
        print("%d unlisted, %d stale; delete the value, drop it from its "
              ".mli, move it under test/, or list it in %s with a reason"
              % (len(bad), len(stale), os.path.relpath(ALLOW, ROOT)))
        return 1
    print("dead exports: none (%d allowlisted)" % len(allow))
    return 0


if __name__ == "__main__":
    sys.exit(main())
