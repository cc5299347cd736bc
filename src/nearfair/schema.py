"""JSON schemas for instances, allocations, and certificates.

Rationals travel as integers or "p/q" / decimal strings; floats are
rejected so files stay exact.  Bundles serialize as sorted
"resource:multiplicity" lists and allocations as sparse entry lists.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from .apportionment import MAInstance
from .couples import CouplesInstance
from .errors import SchemaError
from .model import Allocation, AgentSpec, Bundle, Instance, UtilityModel
from .rationals import rat, rat_str


@contextmanager
def _reading(what: str):
    """Report a malformed document part as a SchemaError: a missing key or
    index, a value of the wrong type, or text that does not parse.  Only the
    reading of a document goes inside; the model constructors stay outside,
    so a library bug is not reported as bad input."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        detail = f"missing {exc}" if isinstance(exc, LookupError) else str(exc)
        raise SchemaError(f"bad {what}: {detail}") from None


def bundle_to_json(bundle: Bundle) -> list[str]:
    return [f"{r}:{m}" for r, m in bundle.items]


def bundle_from_json(data) -> Bundle:
    if not isinstance(data, list):
        raise SchemaError(f"bundle must be a list of 'resource:count', got {data!r}")
    counts: dict[str, int] = {}
    for item in data:
        if not isinstance(item, str) or ":" not in item:
            raise SchemaError(f"bad bundle item {item!r}")
        r, _, m = item.rpartition(":")
        counts[r] = counts.get(r, 0) + int(m)  # callers read inside _reading
    return Bundle.of(counts)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def parse_instance(doc: dict) -> tuple[Instance, Optional[UtilityModel]]:
    """Build (instance, utilities) from a JSON document."""
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be an object")
    agents = []
    binding = set()
    additive: dict[str, dict[str, Fraction]] = {}
    explicit: dict = {}
    modes = set()
    with _reading("instance"):
        for a in doc["agents"]:
            if "id" not in a:
                raise SchemaError("agent without id")
            spec = AgentSpec(
                id=str(a["id"]),
                demand=int(a.get("demand", 1)),
                groups={str(k): str(v) for k, v in a.get("groups", {}).items()},
            )
            agents.append(spec)
            if a.get("binding", False):
                binding.add(spec.id)
            if "utilities" in a:
                modes.add("additive")
                additive[spec.id] = {str(r): rat(v) for r, v in a["utilities"].items()}
            if "bundleUtilities" in a:
                modes.add("explicit")
                for entry in a["bundleUtilities"]:
                    explicit[(spec.id, bundle_from_json(entry["bundle"]))] = rat(
                        entry["value"]
                    )
        resources = [(str(r["id"]), int(r["capacity"])) for r in doc["resources"]]
        acceptability = None
        if "acceptability" in doc:
            acceptability = frozenset(
                (str(a), str(r)) for a, r in doc["acceptability"]
            )
        dimensions = tuple(doc["dimensions"]) if "dimensions" in doc else None
    if len(modes) > 1:
        raise SchemaError("mix of additive and bundle utilities")
    instance = Instance(
        agents=agents,
        resources=resources,
        binding=frozenset(binding),
        dimensions=dimensions,
        acceptability=acceptability,
    )
    utilities = None
    if modes == {"additive"}:
        utilities = UtilityModel(additive=additive)
    elif modes == {"explicit"}:
        utilities = UtilityModel(explicit=explicit)
    return instance, utilities


def serialize_instance(
    instance: Instance, utilities: Optional[UtilityModel] = None
) -> dict:
    agents = []
    for a in instance.agents:
        entry: dict = {"id": a.id, "demand": a.demand}
        if a.id in instance.binding:
            entry["binding"] = True
        if a.groups:
            entry["groups"] = dict(sorted(a.groups.items()))
        if utilities is not None:
            if utilities.additive is not None:
                row = utilities.additive.get(a.id, {})
                entry["utilities"] = {r: rat_str(v) for r, v in sorted(row.items())}
            else:
                entry["bundleUtilities"] = [
                    {"bundle": bundle_to_json(q), "value": rat_str(v)}
                    for (aid, q), v in sorted(utilities.explicit.items())
                    if aid == a.id
                ]
        agents.append(entry)
    doc = {
        "dimensions": list(instance.dimensions),
        "agents": agents,
        "resources": [
            {"id": r, "capacity": c} for r, c in instance.resources
        ],
    }
    if instance.acceptability is not None:
        doc["acceptability"] = sorted([a, r] for a, r in instance.acceptability)
    return doc


def parse_couples(doc: dict) -> tuple[CouplesInstance, Optional[UtilityModel]]:
    instance, utilities = parse_instance(doc)
    prefs = doc.get("preferences")
    if not isinstance(prefs, dict):
        raise SchemaError("couples instance needs a 'preferences' object")
    with _reading("preferences"):
        res_prefs = {
            str(r): [str(a) for a in order]
            for r, order in prefs["resources"].items()
        }
        agent_prefs = {
            str(a): [bundle_from_json(b) for b in order]
            for a, order in prefs["agents"].items()
        }
    return CouplesInstance(instance, res_prefs, agent_prefs), utilities


def parse_ma(doc: dict) -> MAInstance:
    lower, upper = {}, {}
    with _reading("apportionment block"):
        block = doc.get("apportionment", doc)
        # tuples built from lists: see model.Bundle.resources
        dims = tuple([str(d) for d in block["dimensions"]])
        groups = {
            str(d): tuple([str(g) for g in gs]) for d, gs in block["groups"].items()
        }
        votes = {}
        for entry in block["votes"]:
            key = tuple([str(g) for g in entry["tuple"]])
            if key in votes:
                raise SchemaError(f"vote tuple {list(key)} is listed twice")
            votes[key] = int(entry["votes"])
        house = int(block["house"])
        for dim, table in block.get("bounds", {}).items():
            for g, pair in table.items():
                lo, hi = pair
                lower[(str(dim), str(g))] = int(lo)
                upper[(str(dim), str(g))] = int(hi)
    return MAInstance(
        dims=dims, groups=groups, votes=votes, lower=lower, upper=upper, house=house
    )


# ---------------------------------------------------------------------------
# allocations
# ---------------------------------------------------------------------------


def parse_allocation(doc: dict) -> Allocation:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise SchemaError("allocation document needs an 'entries' list")
    values = {}
    with _reading("allocation entry"):
        for entry in doc["entries"]:
            pair = (str(entry["agent"]), bundle_from_json(entry["bundle"]))
            values[pair] = rat(entry["value"])
    return Allocation(values)


def serialize_allocation(alloc: Allocation) -> dict:
    return {
        "entries": [
            {"agent": a, "bundle": bundle_to_json(q), "value": rat_str(v)}
            for (a, q), v in sorted(alloc.values.items())
        ]
    }


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _reject_float(text: str):
    raise SchemaError(f"float literal {text!r} rejected: use integers or 'p/q' strings")


def dump_json(doc: dict, path: Optional[str]) -> str:
    """Compact JSON text of ``doc``, also written to ``path`` when given.

    Without ``indent`` json uses its C encoder, which builds no reference
    cycle per call (the pure-Python indenting encoder leaves one for the
    cycle collector) and writes about half the bytes."""
    text = json.dumps(doc, separators=(",", ":"))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
