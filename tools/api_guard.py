#!/usr/bin/env python3
"""Public-surface guard: every public function and constant of the library
has a caller, or a reason to exist in `tools/api_allowlist.txt`.

    python3 tools/api_guard.py [--root DIR] [--allowlist FILE]

Exits 1 and names each offender when the guard fails.

What is listed. Every `pub fn` (`pub const fn` included) and `pub const` in
the non-test part of `crates/*/src/**/*.rs`. Each file is cut at its first
line that starts with `#[cfg(test)]`, as CI's line measures cut it (no file
under `crates/*/src` has an indented one). Items under an indented
`#[cfg(test)]`, under `#[cfg(any(test, feature = "testing"))]` or under
`#[cfg(feature = "testing")]` are skipped, whole impl blocks and modules
included, and so are the bodies of `macro_rules!`, of traits and of trait
impls. `pub(crate)` and narrower
are not public. An item's name is `crate::module::Type::name`, with `Type`
only for an item of an inherent impl block.

What is a caller. A mention of the name outside the item's own definition,
in the non-test text (cut and gated as above; comments, string contents and
`use` declarations removed) of `crates/*/src`, `benchmark/src`, `examples`
or `src`. The form of the mention depends on the item:
  * a free fn or const: the bare word;
  * an associated fn or const (no `self` receiver): `Type::name` or
    `Self::name`;
  * a method: `.name(` or `.name::<`, or one of the path forms above.
    The receiver's type is not known, so one call covers every method of
    that name: a non-test `.stats(` on any type would count as a caller of
    `FaultLayer::stats` too.

The allowlist. One `crate::path::Type::name  # reason` per line; blank lines
and lines starting with `#` are comments. The guard fails on a name with no
caller that is not listed, on a line with no reason, on a listed name that
no longer exists, and on a listed name that now has a caller.

The settable count. The guard also prints how many deployment values can be
set independently of each other:
  * every `pub` field reachable from `NetConfig` and `FaultPlan`, counted at
    the leaves: a field whose type names a workspace struct with `pub`
    fields counts that struct's fields instead (`Option<T>` as `T`);
  * plus every `DeploymentBuilder` field that a `pub` setter writes, except
    the fields holding a `NetConfig` or a `FaultPlan` (their values are
    counted above): one per parameter of the widest setter that writes it,
    and one for a field only parameterless setters write (`threaded` and
    `event_loop` both write the one gauged switch).
    `with_client_cache` writes the `NetConfig`, so it counts once, as the
    `client_cache` field it sets.
The guard fails when the count exceeds `SETTABLE_CEILING`: a change that
adds a settable value raises the ceiling in its own diff, where a reviewer
sees it.

The public count. The guard fails, too, when the public fns and consts it
lists exceed `PUBLIC_CEILING`: a change that grows the public surface
raises that ceiling in its own diff, the same way.
"""

import argparse
import glob
import os
import re
import sys

CHAR_LIT = re.compile(r"'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'\n])'")
RAW_STR = re.compile(r'b?r(#*)"')
GATE = re.compile(
    r'#\[cfg\(\s*(?:any\(\s*test\s*,\s*feature\s*=\s*"testing"\s*\)'
    r'|feature\s*=\s*"testing"|test)\s*\)\]'
)
ATTR = re.compile(r"#!?\[[^\]]*\]")
USE = re.compile(r"\b(?:pub(?:\([^)]*\))?\s+)?use\s+[^;]*;")
PUB_FN = re.compile(
    r'\bpub\s+(?:const\s+)?(?:unsafe\s+)?(?:extern\s+"[^"]*"\s+)?fn\s+([A-Za-z_]\w*)'
)
PUB_CONST = re.compile(r"\bpub\s+const\s+([A-Za-z_]\w*)\s*:")
RECEIVER = re.compile(r"^\s*(?:&\s*(?:'\w+\s+)?)?(?:mut\s+)?self\b")

# The most settable deployment values the guard lets through.
SETTABLE_CEILING = 22
# The most public fns and consts the guard lets through.
PUBLIC_CEILING = 422


def lex(text):
    """Returns `(code, blank)`, both as long as `text`: `code` has every
    comment replaced by spaces, `blank` also the contents of every string
    and char literal. Newlines are kept, so offsets and lines agree."""
    code, blank = list(text), list(text)
    i, n = 0, len(text)

    def erase(lo, hi, outs):
        for k in range(lo, hi):
            if text[k] != "\n":
                for out in outs:
                    out[k] = " "

    while i < n:
        c = text[i]
        ident_before = i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            erase(i, j, (code, blank))
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            erase(i, j, (code, blank))
            i = j
        elif c in "rb" and not ident_before and RAW_STR.match(text, i):
            m = RAW_STR.match(text, i)
            end = text.find('"' + m.group(1), m.end())
            end = n if end < 0 else end
            erase(m.end(), end, (blank,))
            i = end + 1 + len(m.group(1))
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            erase(i + 1, j, (blank,))
            i = j + 1
        elif c == "'" and CHAR_LIT.match(text, i):
            m = CHAR_LIT.match(text, i)
            erase(i + 1, m.end() - 1, (blank,))
            i = m.end()
        else:
            i += 1  # code, or a lifetime's quote
    return "".join(code), "".join(blank)


def matching(blank, i):
    """Index just past the bracket that closes the one at `i`."""
    closer = {"{": "}", "(": ")", "[": "]"}
    stack = []
    for j in range(i, len(blank)):
        ch = blank[j]
        if ch in closer:
            stack.append(closer[ch])
        elif ch in ")]}":
            stack.pop()
            if not stack:
                return j + 1
    return len(blank)


def item_end(blank, i):
    """Index just past the item starting at `i`: its first depth-0 `;` or
    `,`, or the end of the block its first depth-0 `{` opens."""
    depth = 0
    for j in range(i, len(blank)):
        ch = blank[j]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and ch in ";,":
            return j + 1
        elif depth == 0 and ch == "{":
            return matching(blank, j)
    return len(blank)


def fn_end(blank, name_end):
    """Index just past a fn whose name ends at `name_end`: its body's
    closing brace, or its `;`."""
    close = matching(blank, blank.find("(", name_end))
    body = re.compile(r"[{;]").search(blank, close)
    if body is None or body.group() == ";":
        return close if body is None else body.end()
    return matching(blank, body.start())


def skip_generics(s):
    """`s` without the `<...>` it starts with, if it starts with one."""
    s = s.lstrip()
    if not s.startswith("<"):
        return s
    depth = 0
    for j, ch in enumerate(s):
        if ch == "<":
            depth += 1
        elif ch == ">" and s[j - 1] != "-":
            depth -= 1
            if depth == 0:
                return s[j + 1 :]
    return ""


def classify(header):
    """What the block opened after `header` is: `(kind, name)`."""
    h = ATTR.sub(" ", header).strip()
    m = re.match(r"^(?:(?:pub(?:\([^)]*\))?|unsafe|default)\s+)*impl\b(.*)$", h, re.S)
    if m:
        rest = re.split(r"\bwhere\b", skip_generics(m.group(1)))[0]
        if re.search(r"\bfor\b", rest):
            return "trait_impl", None
        t = re.match(r"\s*(?:&\s*(?:'\w+\s+)?)?(?:mut\s+)?([\w:]+)", rest)
        return ("impl", t.group(1).split("::")[-1]) if t else ("other", None)
    m = re.match(r"^(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)$", h)
    if m:
        return "mod", m.group(1)
    if re.match(r"^macro_rules!\s*\w+$", h):
        return "macro", None
    if re.match(r"^(?:pub(?:\([^)]*\))?\s+)?(?:unsafe\s+)?trait\b", h):
        return "trait", None
    return "other", None


def blocks(blank):
    """Every `{...}` block of `blank`: `(open, close, kind, name)`."""
    out, stack, last = [], [], 0
    for j, ch in enumerate(blank):
        if ch == "{":
            kind, name = classify(blank[last:j])
            stack.append((j, kind, name))
            last = j + 1
        elif ch == "}":
            if stack:
                start, kind, name = stack.pop()
                out.append((start, j + 1, kind, name))
            last = j + 1
        elif ch == ";":
            last = j + 1
    return out


class Source:
    """One file's non-test text, lexed, with its gated regions found."""

    def __init__(self, path, rel):
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        cut = next((k for k, line in enumerate(lines) if line.startswith("#[cfg(test)]")), len(lines))
        self.rel = rel
        self.text = "\n".join(lines[:cut])
        self.code, self.blank = lex(self.text)
        self.gated = [(m.start(), item_end(self.blank, m.end())) for m in GATE.finditer(self.code)]
        mention = list(self.blank)
        for lo, hi in self.gated + [(m.start(), m.end()) for m in USE.finditer(self.blank)]:
            for k in range(lo, hi):
                if mention[k] != "\n":
                    mention[k] = " "
        self.mention = "".join(mention)

    def line(self, offset):
        return self.text.count("\n", 0, offset) + 1

    def in_gate(self, offset):
        return any(lo <= offset < hi for lo, hi in self.gated)


class Item:
    """One public fn or const and the span of its definition."""

    def __init__(self, name, kind, owner, src, start, end):
        self.name, self.kind, self.owner = name, kind, owner
        self.src, self.start, self.end = src, start, end

    def patterns(self):
        word = re.escape(self.name)
        if self.owner is None:
            return [re.compile(r"\b%s\b" % word)]
        path = re.compile(r"\b(?:%s|Self)\s*::\s*%s\b" % (re.escape(self.owner), word))
        if self.kind == "method":
            return [path, re.compile(r"\.\s*%s\s*(?:\(|::\s*<)" % word)]
        return [path]


def crate_name(crate_dir):
    with open(os.path.join(crate_dir, "Cargo.toml"), encoding="utf-8") as f:
        m = re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.M)
    return m.group(1).replace("-", "_")


def module_path(rel_to_src):
    parts = rel_to_src[: -len(".rs")].split("/")
    return parts[:-1] if parts[-1] in ("lib", "main", "mod") else parts


def list_items(root):
    """Every public fn and const: qualified name -> [Item]."""
    items = {}
    for crate_dir in sorted(glob.glob(os.path.join(root, "crates", "*"))):
        src_dir = os.path.join(crate_dir, "src")
        if not os.path.isdir(src_dir):
            continue
        crate = crate_name(crate_dir)
        for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.rs"), recursive=True)):
            src = Source(path, os.path.relpath(path, root))
            mods = module_path(os.path.relpath(path, src_dir).replace(os.sep, "/"))
            spans = blocks(src.blank)
            found = [(m, "fn") for m in PUB_FN.finditer(src.blank)]
            found += [(m, "const") for m in PUB_CONST.finditer(src.blank)]
            for m, what in found:
                at = m.start()
                if src.in_gate(at):
                    continue
                around = sorted((b for b in spans if b[0] < at < b[1]), key=lambda b: b[0])
                if any(b[2] in ("macro", "trait", "trait_impl") for b in around):
                    continue
                inner = around[-1] if around else None
                if inner is not None and inner[2] not in ("impl", "mod"):
                    continue  # an item inside a function body
                owner = inner[3] if inner is not None and inner[2] == "impl" else None
                kind = "free" if owner is None else "assoc"
                end = item_end(src.blank, m.end())
                if what == "fn":
                    paren = src.blank.find("(", m.end())
                    params = src.blank[paren + 1 : matching(src.blank, paren) - 1]
                    if owner is not None and RECEIVER.match(params):
                        kind = "method"
                    end = fn_end(src.blank, m.end())
                path = [crate] + mods + [b[3] for b in around if b[2] == "mod"]
                qual = "::".join(path + ([owner] if owner else []) + [m.group(1)])
                items.setdefault(qual, []).append(Item(m.group(1), kind, owner, src, at, end))
    return items


def mention_sources(root):
    paths = set()
    for pattern in ("crates/*/src/**/*.rs", "benchmark/src/**/*.rs", "examples/**/*.rs", "src/**/*.rs"):
        paths.update(glob.glob(os.path.join(root, pattern), recursive=True))
    return [Source(p, os.path.relpath(p, root)) for p in sorted(paths)]


def has_caller(defs, sources):
    patterns = defs[0].patterns()
    for src in sources:
        own = [(d.start, d.end) for d in defs if d.src.rel == src.rel]
        for pattern in patterns:
            for m in pattern.finditer(src.mention):
                if not any(lo <= m.start() < hi for lo, hi in own):
                    return True
    return False


def read_allowlist(path):
    entries, problems = {}, []
    with open(path, encoding="utf-8") as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            name = name.strip()
            if not reason.strip():
                problems.append("allowlist line %d has no reason: %s" % (n, name))
            entries[name] = reason.strip()
    return entries, problems


def structs(root):
    """Every braced struct of the crates: name -> [(public, field, type)]."""
    out = {}
    pattern = os.path.join(root, "crates", "*", "src", "**", "*.rs")
    for path in sorted(glob.glob(pattern, recursive=True)):
        src = Source(path, path)
        for m in re.finditer(r"\bstruct\s+(\w+)\s*(?:<[^{;(]*>)?\s*\{", src.blank):
            body = src.blank[m.end() : matching(src.blank, m.end() - 1) - 1] + ","
            fields, depth, last = [], 0, 0
            for j, ch in enumerate(body):
                if ch in "<([{":
                    depth += 1
                elif ch in ")]}" or (ch == ">" and body[j - 1] != "-"):
                    depth -= 1
                elif ch == "," and depth == 0:
                    field = ATTR.sub(" ", body[last:j]).strip()
                    last = j + 1
                    f = re.match(r"^(pub(?:\([^)]*\))?\s+)?(\w+)\s*:\s*(.+)$", field, re.S)
                    if f:
                        fields.append(((f.group(1) or "").strip() == "pub", f.group(2), f.group(3)))
            out.setdefault(m.group(1), fields)
    return out


def leaves(name, table, seen=()):
    """`pub` fields reachable from struct `name`, counted at the leaves."""
    total = 0
    for public, _, ty in table.get(name, []):
        if not public:
            continue
        nested = [
            t
            for t in re.findall(r"[A-Za-z_]\w*", ty)
            if t in table and t not in seen and any(p for p, _, _ in table[t])
        ]
        total += leaves(nested[0], table, seen + (name,)) if nested else 1
    return total


def builder_values(root, table):
    """Values `DeploymentBuilder`'s setters write; see the module docs."""
    path = os.path.join(root, "crates", "core", "src", "deploy.rs")
    src = Source(path, path)
    types = {field: ty for _, field, ty in table.get("DeploymentBuilder", [])}
    widths = {}
    for start, end, kind, name in blocks(src.blank):
        if kind != "impl" or name != "DeploymentBuilder":
            continue
        body = src.blank[start:end]
        for m in PUB_FN.finditer(body):
            paren = body.find("(", m.end())
            params = [p for p in body[paren + 1 : matching(body, paren) - 1].split(",") if p.strip()]
            if not params or not RECEIVER.match(params[0]):
                continue
            for w in re.finditer(r"\bself\.(\w+)\s*=[^=]", body[m.end() : fn_end(body, m.end())]):
                field = w.group(1)
                if re.search(r"\b(?:NetConfig|FaultPlan)\b", types.get(field, "")):
                    continue
                widths[field] = max(widths.get(field, 0), max(1, len(params) - 1))
    return sum(widths.values())


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    ap.add_argument("--allowlist")
    args = ap.parse_args()
    root = args.root
    allowlist = args.allowlist or os.path.join(root, "tools", "api_allowlist.txt")
    allowed, problems = read_allowlist(allowlist)

    items = list_items(root)
    sources = mention_sources(root)
    uncalled = {q for q, defs in items.items() if not has_caller(defs, sources)}
    for q in sorted(uncalled - set(allowed)):
        d = items[q][0]
        problems.append("no caller: %s  (%s:%d)" % (q, d.src.rel, d.src.line(d.start)))
    for q in sorted(allowed):
        if q not in items:
            problems.append("stale allowlist entry, no such item: %s" % q)
        elif q not in uncalled:
            problems.append("stale allowlist entry, it has a caller now: %s" % q)

    print(
        "%d public fns and consts; %d without a caller, %d of those allowlisted"
        % (len(items), len(uncalled), len(uncalled & set(allowed)))
    )
    if len(items) > PUBLIC_CEILING:
        problems.append(
            "public fns and consts: %d, above the ceiling of %d" % (len(items), PUBLIC_CEILING)
        )
    table = structs(root)
    net, fault = leaves("NetConfig", table), leaves("FaultPlan", table)
    builder = builder_values(root, table)
    settable = net + fault + builder
    print(
        "settable deployment values: %d (NetConfig %d, FaultPlan %d, DeploymentBuilder %d)"
        % (settable, net, fault, builder)
    )
    if settable > SETTABLE_CEILING:
        problems.append(
            "settable deployment values: %d, above the ceiling of %d"
            % (settable, SETTABLE_CEILING)
        )
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
