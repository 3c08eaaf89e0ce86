"""Lists the determinism-lint sites in `cargo clippy --message-format json`
output read from stdin, one `path:line:col: lint` per line, sorted.

Usage: cargo clippy ... --message-format json | python3 ci/clippy_sites.py
"""

import json
import sys

LINTS = {
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
}

sites = set()
for line in sys.stdin:
    record = json.loads(line)
    if record.get("reason") != "compiler-message":
        continue
    message = record["message"]
    lint = (message.get("code") or {}).get("code")
    if lint in LINTS:
        span = next(s for s in message["spans"] if s["is_primary"])
        sites.add((span["file_name"], span["line_start"], span["column_start"], lint))
for path, line_no, column, lint in sorted(sites):
    print(f"{path}:{line_no}:{column}: {lint}")
