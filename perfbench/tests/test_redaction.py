"""No benchmark output carries an endpoint node id.

The paper's privacy contract, applied to the benchmark's own artifacts:
the metrics document, the span file, the server logs and everything the
command prints may hold names, counts and durations only.  The test
runs one short traced uniform-miss run (reads, re-weights and spans
all present), rebuilds the run's endpoints from its seed and scans every
output for them.
"""

import json
import re
import subprocess
import sys

from conftest import ROOT

from benchlib import inputs

DIGITS = re.compile(r"(?<![\w.])\d+(?![\w.])")
URL = re.compile(r"https?://\S+")
#: the gateway's start-up banner echoes its settings, not endpoints
BANNER = re.compile(r"^engine=[\w-]+ workers=\d+$")


def _text_leaks(text: str, endpoints: set[int], strip: str) -> list[str]:
    text = URL.sub("", text.replace(strip, ""))
    return [tok for tok in DIGITS.findall(text) if int(tok) in endpoints]


def _json_leaks(doc, endpoints: set[int], strip: str) -> list[str]:
    """Numbers are measurements; strings, keys and id lists are not."""
    leaks = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            leaks += _text_leaks(key, endpoints, strip)
            if key == "desc" and isinstance(value, str):
                continue  # a metric's fixed help text, e.g. "(429)"
            leaks += _json_leaks(value, endpoints, strip)
    elif isinstance(doc, list):
        if len(doc) >= 2 and all(isinstance(v, int) for v in doc):
            leaks.append(f"integer list {doc[:3]}...")
        for value in doc:
            leaks += _json_leaks(value, endpoints, strip)
    elif isinstance(doc, str):
        leaks += _text_leaks(doc, endpoints, strip)
    return leaks


def scan(text: str, endpoints: set[int], strip: str = "") -> list[str]:
    """Endpoint ids found in ``text`` (a JSON document, JSON lines or text)."""
    try:
        return _json_leaks(json.loads(text), endpoints, strip)
    except ValueError:
        pass
    leaks = []
    for line in text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            if not BANNER.match(line.strip()):
                leaks += _text_leaks(line, endpoints, strip)
            continue
        leaks += _json_leaks(doc, endpoints, strip)
    return leaks


def test_scanner_finds_planted_leaks():
    endpoints = {4321, 77}
    assert scan('{"paths": [4321, 17]}', endpoints)
    assert scan('{"error": "no path from 4321"}', endpoints)
    assert scan("KeyError: 77", endpoints)
    assert scan('{"77": 1}', endpoints)
    assert not scan('{"latency_ms": 4321.5, "count": 77}', endpoints)
    assert not scan('{"desc": "requests refused (77)"}', endpoints)
    assert scan('{"name": "requests refused (77)"}', endpoints)
    assert not scan("engine=overlay-csr workers=2", {2})
    assert not scan("listening on http://127.0.0.1:77/v1/", endpoints)


def _endpoints(seed: int, users: int) -> set[int]:
    network = inputs.make_network()
    obfuscator = inputs.make_obfuscator(network, seed)
    pairs = inputs.uniform_pairs(network, seed)
    found = set()
    for i in range(1, users + 1):
        record = obfuscator.obfuscate_independent(
            inputs.request(f"r{i:06x}", next(pairs)))
        found |= set(record.query.sources) | set(record.query.destinations)
    return found


def test_run_outputs_carry_no_endpoint(tmp_path):
    seed, out = 5, tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "uniform-miss", "--seed", str(seed),
         "--seconds", "4", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[1])["detail"]
    result = json.loads(lines[-1])
    users = result["attempted"] - detail["samples"]["posts"]
    endpoints = _endpoints(seed, users)
    assert len(endpoints) > 100

    outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(out.iterdir()):
        if path.name != "map.txt":  # the generated input, not an output
            outputs[path.name] = path.read_text()
    assert {"spans.jsonl", "metrics.json", "result.json",
            "server-2.log"} <= set(outputs)
    for name, text in outputs.items():
        assert scan(text, endpoints, strip=str(tmp_path)) == [], name
