#!/usr/bin/env python3
"""Non-test source lines per workspace crate.

    loc.py [ROOT]

For every package of the workspace at ROOT (default: the repository this
script lives in) -- the facade at the root and each `crates/*` -- counts
the lines of every `src/**/*.rs` that come before the file's first
`#[cfg(test)]` line (all of a file's lines if it has none). Blank lines and
comments count: the figure is what a reader of the product code reads.
Integration tests (`tests/`), benches and examples are outside `src/` and
are not counted. Prints one `name lines` row per package, sorted by name,
then the total. Needs only the Python standard library.
"""
import os, pathlib, re, sys

NAME = re.compile(r'^\s*name\s*=\s*"([^"]+)"', re.M)


def package_name(manifest):
    # The first `name = ".."` of the manifest is the [package] name.
    m = NAME.search(manifest.read_text())
    return m.group(1) if m else manifest.parent.name


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def package_lines(pkg):
    return sum(non_test_lines(p) for p in sorted((pkg / "src").rglob("*.rs")))


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parent.parent)
    pkgs = [root] + sorted(p for p in (root / "crates").iterdir() if (p / "Cargo.toml").is_file())
    rows = sorted((package_name(p / "Cargo.toml"), package_lines(p)) for p in pkgs)
    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(l for _, l in rows):>6}")


if __name__ == "__main__":
    main()
