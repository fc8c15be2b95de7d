#!/usr/bin/env python3
"""Layering check for the src/ include graph.

Scans every quoted #include under src/ and maps it to a directory edge
(src/core/model.h including "util/status.h" is core -> util). Prints the
graph, then exits 1 if any edge is not in ALLOWED, naming the file and
line. The graph is one-way: each directory may include only the layers
below it.

    python3 tests/check_layering.py [src-dir]
"""
import re
import sys
from pathlib import Path

ALLOWED = {
    "util": set(),
    "threading": set(),
    "regex": {"util"},
    "core": {"util", "threading", "regex"},
    "logstore": {"util"},
    "service": {"core", "logstore", "regex", "threading", "util"},
    "api": {"service", "logstore", "util"},
    "net": {"api", "util"},
    "replication": {"api", "net", "service", "logstore", "util"},
    "datagen": {"util"},
    "eval": {"core", "datagen", "util"},
    "baselines": {"core", "eval", "util"},
}

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def main():
    src = Path(sys.argv[1] if len(sys.argv) > 1 else
               Path(__file__).resolve().parent.parent / "src")
    graph = {}
    violations = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        layer = path.relative_to(src).parts[0]
        edges = graph.setdefault(layer, set())
        if layer not in ALLOWED:
            violations.append(f"{path}: directory {layer}/ is not a layer")
        for number, line in enumerate(path.read_text().splitlines(), 1):
            match = INCLUDE.match(line)
            if not match:
                continue
            target = match.group(1)
            dep = target.split("/")[0] if "/" in target else layer
            if dep == layer:
                continue
            edges.add(dep)
            if dep not in ALLOWED.get(layer, set()):
                violations.append(
                    f"{path}:{number}: {layer} -> {dep} (\"{target}\")")
    for layer in sorted(graph):
        print(f"{layer} -> {', '.join(sorted(graph[layer])) or '(none)'}")
    if violations:
        print(f"\n{len(violations)} include(s) outside the layering:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("\nlayering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
