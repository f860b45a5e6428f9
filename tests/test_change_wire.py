"""The change script's wire form, pinned byte for byte.

``tests/change_wire.json`` holds :meth:`ChangeSet.to_json` output for one
change of every kind (optional fields both set and left at their
defaults) and for the generated change script of every netgen family,
seeds 0-3, written by the hand-written per-kind codecs the field-driven
codec replaced.  Encoding must reproduce every text exactly and decoding
it must give back an equal change set.

Regenerate (only when the wire form is *meant* to change):
``PYTHONPATH=src python tests/test_change_wire.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config.acl import AclLine
from repro.config.prefix import Prefix
from repro.config.routemap import PrefixListEntry, RouteMapClause
from repro.delta.changeset import (
    CHANGE_KINDS,
    ChangeSet,
    DeviceAdd,
    DeviceRemove,
    InterfaceAclSet,
    LinkAdd,
    LinkCostSet,
    LinkRemove,
    LocalPrefOverride,
    PrefixListSet,
    PrefixOriginate,
    PrefixWithdraw,
    RouteMapClauseDelete,
    RouteMapClauseEdit,
    RouteMapClauseInsert,
)
from repro.netgen.changes import generated_change_script
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology

FIXTURE = Path(__file__).parent / "change_wire.json"

#: Enough steps for every sampler :func:`generated_change_script` has.
SCRIPT_STEPS = 6
SEEDS = (0, 1, 2, 3)

_P = Prefix.parse("10.9.9.0/24")
_FULL_CLAUSE = RouteMapClause(
    sequence=5,
    action="deny",
    match_community_lists=("CL-A", "CL-B"),
    match_prefix_lists=("PL-A",),
    set_local_pref=250,
    set_communities=("65000:1",),
    delete_communities=("65000:2", "65000:3"),
    prepend_as=2,
)

#: ``case name -> change``: every kind, defaults and set optionals.
CHANGES = {
    "link-add": LinkAdd(u="r0", v="r2"),
    "link-add/no-bgp": LinkAdd(u="r0", v="r2", with_bgp=False),
    "link-remove": LinkRemove(u="r0", v="r1"),
    "link-cost": LinkCostSet(u="r0", v="r1", cost=7),
    "link-cost/one-way": LinkCostSet(u="r0", v="r1", cost=7, symmetric=False),
    "prefix-originate": PrefixOriginate(device="r0", prefix=_P),
    "prefix-withdraw": PrefixWithdraw(device="r3", prefix=_P),
    "prefix-list-set/empty": PrefixListSet(device="r0", name="PL-A", entries=()),
    "prefix-list-set": PrefixListSet(
        device="r0",
        name="PL-A",
        entries=(
            PrefixListEntry(prefix=_P),
            PrefixListEntry(prefix=Prefix.parse("10.0.0.0/8"), action="deny", ge=16, le=24),
        ),
    ),
    "route-map-insert": RouteMapClauseInsert(
        device="r0", route_map="EXPORT-FILTER", clause=RouteMapClause(sequence=10)
    ),
    "route-map-insert/full": RouteMapClauseInsert(
        device="r0", route_map="EXPORT-FILTER", clause=_FULL_CLAUSE
    ),
    "route-map-edit": RouteMapClauseEdit(
        device="r0", route_map="EXPORT-FILTER", clause=_FULL_CLAUSE
    ),
    "route-map-delete": RouteMapClauseDelete(
        device="r0", route_map="EXPORT-FILTER", sequence=10
    ),
    "local-pref-override": LocalPrefOverride(device="r0", peer="r1", local_pref=300),
    "acl-set": InterfaceAclSet(device="r0", peer="r1", name="ACL-A"),
    "acl-set/full": InterfaceAclSet(
        device="r0",
        peer="r1",
        name="ACL-A",
        lines=(AclLine("deny", _P), AclLine("permit", Prefix.parse("0.0.0.0/0"))),
        default_action="deny",
    ),
    "device-add": DeviceAdd(name="new", neighbours=("r1", "r2")),
    "device-add/originating": DeviceAdd(name="new", neighbours=("r1",), originated=_P),
    "device-remove": DeviceRemove(name="r4"),
}


def _change_cases():
    return {
        name: ChangeSet(changes=(change,), name="" if "/" in name else name)
        for name, change in CHANGES.items()
    }


def _script_cases():
    cases = {}
    for family in sorted(TOPOLOGY_FAMILIES):
        network = build_topology(family)
        for seed in SEEDS:
            script = generated_change_script(
                network, family, steps=SCRIPT_STEPS, seed=seed
            )
            cases[f"{family}/seed{seed}"] = script
    return cases


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_every_kind_has_a_case():
    assert {change.kind for change in CHANGES.values()} == set(CHANGE_KINDS)


@pytest.mark.parametrize("name", sorted(CHANGES))
def test_change_bytes(fixture, name):
    changeset = _change_cases()[name]
    assert changeset.to_json() == fixture["changes"][name]
    assert ChangeSet.from_json(fixture["changes"][name]) == changeset


def test_generated_script_bytes(fixture):
    scripts = _script_cases()
    assert sorted(scripts) == sorted(fixture["scripts"])
    for name, script in scripts.items():
        texts = fixture["scripts"][name]
        assert [changeset.to_json() for changeset in script] == texts, name
        decoded = [ChangeSet.from_json(text) for text in texts]
        assert decoded == script, name
        assert [cs.name for cs in decoded] == [cs.name for cs in script], name


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                "changes": {
                    name: changeset.to_json() for name, changeset in _change_cases().items()
                },
                "scripts": {
                    name: [changeset.to_json() for changeset in script]
                    for name, script in _script_cases().items()
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
