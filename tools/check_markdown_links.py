#!/usr/bin/env python3
"""Markdown link checker for the documentation surface (stdlib only).

Usage: check_markdown_links.py [-v] FILE.md|DIR [FILE.md|DIR ...]

Verifies, for every inline markdown link ``[text](target)`` in the given
markdown files:

  * relative file targets resolve to an existing file or directory
    (relative to the linking file's directory);
  * ``#anchor`` fragments — both in-file (``#section``) and cross-file
    (``other.md#section``) — match a heading in the target file, using
    GitHub's slugification (lowercase, spaces to dashes, punctuation
    dropped);
  * absolute http(s) links are *not* fetched (CI must not depend on the
    network); they are only reported with ``-v``.

For every C++ source under a given directory (``.h``, ``.hpp``, ``.cc``,
``.cpp``), each ``*.md`` file named in a comment must exist, relative to
the repository root or to the source's directory; an ``#anchor`` after it
must match a heading, and a ``§N`` after it a numbered heading ``N.``.

Exit status: 0 when every link resolves, 1 otherwise (one line per broken
link). Run by the CI ``docs`` job and, when python3 is available, as the
``docs/link_check`` CTest test.
"""

import re
import sys
from pathlib import Path

# Inline links/images: [text](target) / ![alt](target). Deliberately simple:
# the docs use plain targets without nested parentheses or titles.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug: strip markdown emphasis/code marks,
    lowercase, drop punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading)
    # Inline links inside headings contribute only their text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    slugs = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        # Duplicate headings get -1, -2, ... suffixes on GitHub.
        n = slugs.get(slug, 0)
        slugs[slug] = n + 1
    out = set()
    for slug, n in slugs.items():
        out.add(slug)
        for i in range(1, n):
            out.add(f"{slug}-{i}")
    return out


def iter_links(path: Path):
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


CPP_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
# A markdown file named in a comment, with an optional anchor or section.
CPP_MD_REF_RE = re.compile(
    r"([\w./-]*\w\.md)\b(#[\w-]+)?(?:,?\s*§(\d+))?")
REPO_ROOT = Path(__file__).resolve().parent.parent


def iter_cpp_comments(path: Path):
    """Yields (lineno, comment text) for // and /* */ comments, skipping
    string and character literals (digit separators like 1'000 are not
    literals)."""
    in_block = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        parts = []
        quote = None
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                parts.append(line[i:] if end < 0 else line[i:end])
                if end < 0:
                    break
                in_block = False
                i = end + 2
            elif quote:
                if line[i] == "\\":
                    i += 1
                elif line[i] == quote:
                    quote = None
                i += 1
            elif line.startswith("//", i):
                parts.append(line[i + 2:])
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                if line[i] == '"' or (
                    line[i] == "'" and (i == 0 or not line[i - 1].isalnum())
                ):
                    quote = line[i]
                i += 1
        if parts:
            yield lineno, " ".join(parts)


def section_numbers(path: Path) -> set:
    numbers = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        m = HEADING_RE.match(line)
        if m:
            n = re.match(r"(\d+)\.", m.group(1))
            if n:
                numbers.add(n.group(1))
    return numbers


def check_cpp(path: Path, errors: list, slug_cache: dict):
    for lineno, text in iter_cpp_comments(path):
        for m in CPP_MD_REF_RE.finditer(text):
            ref, anchor, section = m.groups()
            where = f"{path}:{lineno}"
            dest = next((c for c in (REPO_ROOT / ref, path.parent / ref)
                         if c.is_file()), None)
            if dest is None:
                errors.append(f"{where}: comment names missing file {ref}")
                continue
            if anchor:
                if dest not in slug_cache:
                    slug_cache[dest] = heading_slugs(dest)
                if anchor[1:].lower() not in slug_cache[dest]:
                    errors.append(f"{where}: broken anchor {ref}{anchor}")
            if section and section not in section_numbers(dest):
                errors.append(f"{where}: {ref} has no section {section}")


def main(argv):
    verbose = "-v" in argv
    paths = [Path(a) for a in argv if not a.startswith("-")]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    files = [p for p in paths if not p.is_dir()]
    sources = sorted(f for d in paths if d.is_dir() for f in d.rglob("*")
                     if f.suffix in CPP_SUFFIXES)
    errors = []
    slug_cache = {}
    for src in sources:
        check_cpp(src, errors, slug_cache)
    for md in files:
        if not md.is_file():
            errors.append(f"{md}: file not found")
            continue
        for lineno, target in iter_links(md):
            where = f"{md}:{lineno}"
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                if verbose:
                    print(f"{where}: skipping external link {target}")
                continue
            path_part, _, fragment = target.partition("#")
            dest = (md.parent / path_part).resolve() if path_part else md
            if path_part and not dest.exists():
                errors.append(f"{where}: broken link {target} "
                              f"(no such file {dest})")
                continue
            if fragment:
                if not dest.is_file() or dest.suffix.lower() != ".md":
                    # Anchors into non-markdown targets aren't checkable.
                    continue
                if dest not in slug_cache:
                    slug_cache[dest] = heading_slugs(dest)
                if fragment.lower() not in slug_cache[dest]:
                    errors.append(f"{where}: broken anchor {target} "
                                  f"(no heading #{fragment} in {dest.name})")
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"checked {len(files)} file(s) and {len(sources)} C++ "
              "source(s): all links resolve")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
