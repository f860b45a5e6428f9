"""Start-up: a process imports the layers it uses, and nothing else.

These tests assert *module sets*, not milliseconds: which ``repro``
modules (and which expensive stdlib ones) a fresh interpreter has loaded
after an import or a CLI subcommand.  Every check runs in a child
process, because this one has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What ``compress`` must not pay for: the other pillars, the HTTP
#: server and the process-pool machinery.
NOT_FOR_COMPRESS = (
    "repro.serve", "repro.store", "repro.delta", "repro.failures",
    "repro.analysis.batch", "repro.api", "http.server", "multiprocessing",
)

PACKAGES = (
    "repro", "repro.abstraction", "repro.analysis", "repro.bdd", "repro.config",
    "repro.delta", "repro.failures", "repro.netgen", "repro.pipeline", "repro.routing",
    "repro.serve", "repro.srp", "repro.store", "repro.topology",
)


def run_child(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(argv, expect_status: int = 0):
    """``sys.modules`` of a child after ``cli.main(argv)``."""
    code = (
        "import contextlib, io, json, sys\n"
        "from repro.pipeline.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    status = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps({'status': status, 'modules': sorted(sys.modules)}))\n"
    )
    result = run_child(code, json.dumps(argv))
    assert result["status"] == expect_status
    return set(result["modules"])


def test_import_repro_loads_no_pillar():
    modules = run_child(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert modules == ["repro", "repro._lazy"]


def test_first_use_imports_only_what_it_names():
    modules = set(run_child(
        "import json, sys\n"
        "from repro import Bonsai, fattree_network\n"
        "Bonsai(fattree_network(4)).compress_all(limit=1)\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))
    assert "repro.abstraction.bonsai" in modules
    assert not modules & set(NOT_FOR_COMPRESS)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        getattr(module, name)  # raises when the table names a missing attribute
        assert name in listed, f"{package}.{name} missing from dir()"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


SUBCOMMAND_MODULE_SETS = {
    "compress-setup": (
        ["compress", "--topo", "fattree", "--size", "4", "--limit", "0"], 0, NOT_FOR_COMPRESS,
    ),
    # A whole default-executor run of cheap classes: the probe is the run.
    "compress": (["compress", "--topo", "fattree", "--size", "4"], 0, NOT_FOR_COMPRESS),
    "verify": (
        ["verify", "--topo", "ring", "--size", "4", "--properties", "reachability"], 0,
        ("repro.serve", "repro.store", "repro.delta", "repro.failures", "repro.api",
         "http.server", "multiprocessing"),
    ),
    "failures": (
        ["failures", "--topo", "ring", "--size", "4", "--properties", "reachability"], 0,
        ("repro.serve", "repro.store", "repro.delta", "repro.api", "http.server",
         "multiprocessing"),
    ),
    "delta": (
        ["delta", "--topo", "ring", "--size", "4", "--properties", "reachability"], 0,
        ("repro.serve", "repro.store", "repro.api", "http.server", "multiprocessing"),
    ),
    "store": (
        ["store", "list", "--store", "{tmp}"], 0,
        ("repro.serve", "repro.api", "repro.failures.sweep", "http.server",
         "multiprocessing"),
    ),
    "trace": (["trace", "summarize", "{tmp}/none.jsonl"], 1, NOT_FOR_COMPRESS),
    "profile": (["profile", "summarize", "{tmp}/none.jsonl"], 2, NOT_FOR_COMPRESS),
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_MODULE_SETS))
def test_subcommand_imports_only_its_pillar(case, tmp_path):
    argv, status, forbidden = SUBCOMMAND_MODULE_SETS[case]
    modules = loaded_after([arg.format(tmp=tmp_path) for arg in argv], status)
    assert "repro.pipeline.core" in modules
    assert not modules & set(forbidden)


@pytest.mark.parametrize("kind", ["verification", "failures", "delta"])
def test_load_report_needs_only_repro_reporting(kind, tmp_path):
    """The report registry resolves on demand: a reader that imported
    ``repro.reporting`` and nothing else loads any kind of report."""
    from repro.netgen.changes import generated_change_script
    from repro.netgen.families import build_topology

    network = build_topology("ring", 4)
    common = dict(executor="serial", limit=1)
    if kind == "verification":
        from repro.analysis.batch import BatchVerifier

        report = BatchVerifier(network, **common).run()
    elif kind == "failures":
        from repro.failures import FailureSweep

        report = FailureSweep(network, k=1, **common).run()
    else:
        from repro.delta import DeltaSweep

        script = generated_change_script(network, "ring", steps=1)
        report = DeltaSweep(network, script=script, **common).run()
    path = tmp_path / "report.json"
    path.write_text(report.to_json(), encoding="utf-8")
    loaded = run_child(
        "import json, sys\n"
        "from repro.reporting import load_report\n"
        "assert not any(m.startswith('repro.') and m != 'repro.reporting' "
        "and m != 'repro._lazy' for m in sys.modules), sorted(sys.modules)\n"
        "report = load_report(open(sys.argv[1], encoding='utf-8').read())\n"
        "print(json.dumps([type(report).__name__, report.kind, report.ok(), "
        "len(report.records)]))",
        str(path),
    )
    assert loaded == [type(report).__name__, kind, True, 1]


def test_task_registries_resolve_on_demand():
    """A task name resolves in a process that imported the fan-out and
    none of the pillars, serially and in a pool."""
    result = run_child(
        "import json, sys\n"
        "from repro.netgen.families import build_topology\n"
        "from repro.pipeline.core import ClassFanOut\n"
        "from repro.failures.scenario import scenarios_for\n"
        "assert 'repro.analysis.batch' not in sys.modules\n"
        "assert 'repro.failures.sweep' not in sys.modules\n"
        "network = build_topology('ring', 4)\n"
        "verified = ClassFanOut(network, task='verify', executor='serial').execute()\n"
        "scenarios = [s.to_dict() for s in scenarios_for(network, k=1)]\n"
        "fanout = ClassFanOut(network, task='failures', executor='process', workers=2,\n"
        "                     limit=1, task_options={'scenarios': scenarios})\n"
        "record, = fanout.execute()\n"
        "print(json.dumps([len(verified), len(record.scenarios) == len(scenarios),\n"
        "                  len(fanout.last_batches)]))"
    )
    # One class is one unit of pool work: one batch.
    assert result == [4, True, 1]


def test_serve_imports_everything_before_it_binds():
    """A first ``/verify`` or ``/delta`` never pays an import: the child
    loads no ``repro`` module between ``/health`` and those answers."""
    code = '''
import contextlib, http.client, io, json, re, sys, threading, time
from repro.pipeline.cli import main

class Announcements(io.StringIO):
    port = None
    def write(self, text):
        match = re.search(r"listening on http://[\\d.]+:(\\d+)", text)
        if match:
            Announcements.port = int(match.group(1))
        return len(text)

def serve():
    with contextlib.redirect_stdout(Announcements()):
        main(["serve", "--topo", "fattree", "--size", "4", "--port", "0"])

threading.Thread(target=serve, daemon=True).start()
deadline = time.monotonic() + 60
while Announcements.port is None and time.monotonic() < deadline:
    time.sleep(0.01)
connection = http.client.HTTPConnection("127.0.0.1", Announcements.port, timeout=60)

def ask(method, path, payload=None):
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, json.loads(response.read())

status, health = ask("GET", "/health")
assert status == 200, health
from repro.netgen.changes import generated_change_script
from repro.netgen.families import build_topology
script = generated_change_script(build_topology("fattree", 4), "fattree", steps=1)
between = {m for m in sys.modules if m.startswith("repro")}
answers = [
    ask("POST", "/verify", {}),
    ask("POST", "/delta", {"script": [step.to_dict() for step in script]}),
    ask("POST", "/failures", {"k": 1, "sample": 2}),
]
after = {m for m in sys.modules if m.startswith("repro")}
# sys.stdout is the serving thread's redirect for as long as it serves.
print(json.dumps({
    "ok": [status == 200 and body.get("ok") is True for status, body in answers],
    "new": sorted(after - between),
}), file=sys.__stdout__)
'''
    result = run_child(code)
    assert result["ok"] == [True, True, True]
    assert result["new"] == []
