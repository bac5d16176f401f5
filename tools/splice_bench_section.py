#!/usr/bin/env python3
"""Replace one bench's section inside combined bench output.

Usage: splice_bench_section.py <combined_file> <bench_name> <new_section_file>

<combined_file> is either a combined bench_output.txt, whose sections are
delimited by the '===== name =====' banners run_all-style loops emit, or
a BENCH_results.json, whose benches[<bench_name>] entry is replaced by the
section parsed with tools/bench_to_json.py. A JSON splice also records
this host's core count in the section's config as host_cores, so run it
on the host that measured the section. Used to refresh a single bench's
results without re-running the whole suite.
"""

import argparse
import json
import os
import sys

import bench_to_json


def splice_text(combined_path, name, body):
    with open(combined_path) as f:
        lines = f.readlines()
    banner = f"===== {name} =====\n"
    try:
        start = lines.index(banner)
    except ValueError:
        print(f"no section '{name}' in {combined_path}", file=sys.stderr)
        return 1
    end = start + 1
    while end < len(lines) and not lines[end].startswith("====="):
        end += 1
    lines[start + 1 : end] = [body]
    with open(combined_path, "w") as f:
        f.writelines(lines)
    return 0


def splice_json(combined_path, name, body):
    with open(combined_path, encoding="utf-8") as f:
        document = json.load(f)
    parsed = bench_to_json.parse_text(f"===== {name} =====\n{body}")
    section = parsed["benches"][name]
    if not section.get("datasets") and not section.get("benchmarks"):
        print(f"no results in the new '{name}' section", file=sys.stderr)
        return 1
    section["config"]["host_cores"] = os.cpu_count()
    document["benches"][name] = section
    with open(combined_path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("combined_file")
    parser.add_argument("bench_name")
    parser.add_argument("new_section_file")
    args = parser.parse_args(argv)
    with open(args.new_section_file) as f:
        body = f.read().rstrip("\n") + "\n\n"
    if args.combined_file.endswith(".json"):
        status = splice_json(args.combined_file, args.bench_name, body)
    else:
        status = splice_text(args.combined_file, args.bench_name, body)
    if status == 0:
        print(f"replaced section '{args.bench_name}'")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
