"""Registry of the shipped objects.

The two base theories are stored as full presentation files.  The fiber
objects are stored as thin manifests pointing at their base; their
presentations depend on the window (how many v-power families fit) and are
materialized by the fiber construction on demand.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, Optional

from .engine import ObjectSpec, Window
from .grading import EffssError, presentation_from_dict

#: objects with a tri-graded slice spectral sequence
TRI_GRADED = ("ko_C", "ko", "L", "L_C")

#: eta-inverted companions, graded by coweight alone (see eta module)
ETA_LOCAL = ("ko_eta", "L_eta", "L_C_eta")

ALL_OBJECTS = TRI_GRADED + ETA_LOCAL


def load_data(name: str) -> Dict:
    path = resources.files("effss.data").joinpath(name + ".json")
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise EffssError("no shipped data for object %r" % name)


def window_from_dict(d: Dict) -> Window:
    return Window(s=tuple(d["s"]), f=tuple(d["f"]), w=tuple(d["w"]))


def window_to_dict(w: Window) -> Dict:
    return {"s": list(w.s), "f": list(w.f), "w": list(w.w)}


def spec_from_dict(data: Dict) -> ObjectSpec:
    """Build an engine object from a full presentation dictionary."""
    pres = presentation_from_dict(data)
    schedule = {}
    for r, table in data.get("differentials", {}).items():
        images = {}
        for gname, terms in table.items():
            images[pres.gen(gname)] = pres.element_from_list(terms)
        schedule[int(r)] = images
    meta: Dict[str, object] = {}
    if "psi3" in data:
        meta["psi3"] = {
            pres.gen(g): pres.element_from_list(t) for g, t in data["psi3"].items()
        }
    if "etaImage" in data:
        meta["etaImage"] = {
            pres.gen(g): frozenset(tuple(int(x) for x in mono) for mono in monos)
            for g, monos in data["etaImage"].items()
        }
    dw = data.get("defaultWindow")
    return ObjectSpec(
        name=str(data["name"]),
        pres=pres,
        schedule=schedule,
        has_pattern=bool(data.get("pattern", False)),
        image_gens=frozenset(pres.gen(g) for g in data.get("imageGenerators", ())),
        stable_page=int(data.get("stablePage", 2)),
        default_window=window_from_dict(dw) if dw else None,
        default_r_max=data.get("defaultRMax"),
        meta=meta,
    )


def spec_to_dict(spec: ObjectSpec) -> Dict:
    """Materialized presentation of an object, ready to serialize.

    This is the inverse of ``spec_from_dict`` up to normalization, and is
    what the dump-presentation command emits; for the fiber objects it shows
    the generated families, rules and differential tables explicitly.
    """
    pres = spec.pres
    out = pres.to_dict()
    out["differentials"] = {
        str(r): {
            pres.gen_name(g): pres.element_to_list(img)
            for g, img in sorted(images.items())
        }
        for r, images in sorted(spec.schedule.items())
    }
    if "psi3" in spec.meta:
        out["psi3"] = {
            pres.gen_name(g): pres.element_to_list(img)
            for g, img in sorted(spec.meta["psi3"].items())
        }
    if "etaImage" in spec.meta:
        out["etaImage"] = {
            pres.gen_name(g): [list(mono) for mono in sorted(img)]
            for g, img in sorted(spec.meta["etaImage"].items())
        }
    out["imageGenerators"] = sorted(pres.gen_name(g) for g in spec.image_gens)
    out["pattern"] = spec.has_pattern
    out["stablePage"] = spec.stable_page
    if spec.default_window is not None:
        out["defaultWindow"] = window_to_dict(spec.default_window)
    if spec.default_r_max is not None:
        out["defaultRMax"] = spec.default_r_max
    return out


def get_object(name: str, window: Optional[Window] = None) -> ObjectSpec:
    """Look up a tri-graded object by name.

    The fiber objects need a window to know how many v-power families to
    generate; when none is passed, their default window is used.
    """
    if name in ETA_LOCAL:
        raise EffssError(
            "%s is coweight-graded; use the eta module for it" % name
        )
    if name not in TRI_GRADED:
        raise EffssError(
            "unknown object %r (expected one of %s)" % (name, ", ".join(ALL_OBJECTS))
        )
    data = load_data(name)
    if data.get("construction") == "fiber_psi3_minus_1":
        from .fiber import build_fiber_object

        return build_fiber_object(data, window)
    return spec_from_dict(data)
