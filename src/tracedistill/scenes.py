"""Synthetic scene model, ground-truth answer oracle, and the patch tool API.

Scenes stand in for images: each object carries a box on a fixed 224x224
canvas, a noun name, one attribute per attribute class, and a depth value.
All tool calls made by visual programs resolve against this scene graph, so
program outputs can be checked exactly.

Coordinates are y-up: ``lower < upper`` and "above" means a larger vertical
center.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Iterator

from .errors import SceneLookupError, SchemaError
from .jsonlio import iter_rows, read_rows

CANVAS = (224, 224)

NOUNS = [
    "muffin", "cup", "plate", "dog", "cat", "book", "bottle", "phone",
    "laptop", "fork", "spoon", "apple", "chair", "lamp",
]

ATTRIBUTE_CLASSES = {
    "color": ["red", "blue", "green", "yellow", "white", "black"],
    "material": ["wooden", "metal", "plastic", "ceramic"],
    "size": ["small", "large"],
}

PREDICATES = ["on", "under", "near", "behind", "beside"]

# Each spatial relation: the patch attribute it compares and the comparison
# that makes "is the A <relation> the B" true. Strict, so two objects with
# equal centers answer "no" to every relation.
SPATIAL_RELATIONS = {
    "left of": ("horizontal_center", "<"),
    "right of": ("horizontal_center", ">"),
    "above": ("vertical_center", ">"),
    "below": ("vertical_center", "<"),
}


@dataclass(frozen=True)
class SceneObject:
    id: str
    name: str
    box: tuple[int, int, int, int]  # (left, lower, right, upper) px
    attributes: frozenset[str]
    depth: float

    @property
    def center(self) -> tuple[float, float]:
        l, lo, r, u = self.box
        return ((l + r) / 2, (lo + u) / 2)


@dataclass(frozen=True)
class Scene:
    scene_id: str
    objects: tuple[SceneObject, ...]
    relations: tuple[tuple[str, str, str], ...]  # (subject_id, predicate, object_id)

    def object_by_id(self, oid: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == oid:
                return obj
        raise SceneLookupError(f"no object {oid!r} in scene {self.scene_id!r}")


@dataclass(frozen=True)
class Patch:
    """A rectangular region of a scene, optionally matched to an object."""

    scene_ref: str
    box: tuple[int, int, int, int]
    matched_object: str | None = None

    @property
    def left(self) -> int:
        return self.box[0]

    @property
    def lower(self) -> int:
        return self.box[1]

    @property
    def right(self) -> int:
        return self.box[2]

    @property
    def upper(self) -> int:
        return self.box[3]

    @property
    def width(self) -> int:
        return self.box[2] - self.box[0]

    @property
    def height(self) -> int:
        return self.box[3] - self.box[1]

    @property
    def horizontal_center(self) -> float:
        return (self.box[0] + self.box[2]) / 2

    @property
    def vertical_center(self) -> float:
        return (self.box[1] + self.box[3]) / 2


@dataclass(frozen=True)
class Query:
    """One queries.jsonl row: these fields."""

    query_id: str
    scene_id: str
    question: str
    expected_answer: str


@dataclass
class ToolConfig:
    """Detector-noise knob: flips exists/verify_property results with
    probability ``noise_p``, seeded and deterministic per call site."""

    noise_p: float = 0.0
    noise_seed: int = 0

    def flips(self, *key_parts: object) -> bool:
        if self.noise_p <= 0.0:
            return False
        key = "|".join(str(p) for p in key_parts) + f"|{self.noise_seed}"
        digest = sha256(key.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.noise_p


def full_canvas_patch(scene: Scene) -> Patch:
    return Patch(scene_ref=scene.scene_id, box=(0, 0, *CANVAS))


# ---------------------------------------------------------------------------
# validation / persistence

def _check_bounds(scene: Scene) -> None:
    """What no annotation states: boxes on the canvas with ``l < r`` and
    ``lo < u``, depths >= 0, names non-empty, ids unique, relations among them."""
    ids: set[str] = set()
    for j, obj in enumerate(scene.objects):
        l, lo, r, u = obj.box
        if not (0 <= l < r <= CANVAS[0]):
            raise SchemaError(f"objects[{j}] field 'box' horizontal extent invalid ({l}, {r})")
        if not (0 <= lo < u <= CANVAS[1]):
            raise SchemaError(f"objects[{j}] field 'box' vertical extent invalid ({lo}, {u})")
        if obj.depth < 0:
            raise SchemaError(f"objects[{j}] field 'depth' must be >= 0, got {obj.depth!r}")
        if not obj.name or obj.id in ids:
            raise SchemaError(f"objects[{j}] has an empty name or a repeated id {obj.id!r}")
        ids.add(obj.id)
    for k, (subj, _, obj_id) in enumerate(scene.relations):
        if subj not in ids or obj_id not in ids:
            raise SchemaError(f"relations[{k}] endpoint missing from objects")


def iter_scenes(path: str | Path) -> Iterator[Scene]:
    """Read scenes.jsonl one row at a time: one ``Scene`` per row, within
    bounds, no ``scene_id`` repeated."""
    return iter_rows(path, Scene, unique="scene_id", check=_check_bounds)


def load_scenes(path: str | Path) -> list[Scene]:
    """Every scene of ``iter_scenes``, as a list."""
    return list(iter_scenes(path))


# ---------------------------------------------------------------------------
# generation

def generate_scenes(n: int, seed: int) -> list[Scene]:
    """Every scene of ``scene_stream``, as a list."""
    return list(scene_stream(n, seed))


def scene_stream(n: int, seed: int) -> Iterator[Scene]:
    """Deterministically generate ``n`` scenes with 2-8 objects each, one at
    a time.

    Object centers are pairwise distinct in both coordinates, which makes
    spatial comparisons strict, and every object carries exactly one
    attribute from each attribute class.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    for i in range(n):
        sid = f"scene_{i:04d}"
        count = rng.randint(2, 8)
        # A small per-scene name pool makes repeated nouns common, so
        # counting loops usually iterate more than once.
        pool = rng.sample(NOUNS, max(2, count // 2 + 1))
        xs = rng.sample(range(20, 205), count)
        ys = rng.sample(range(20, 205), count)
        objects = []
        for j in range(count):
            cx, cy = xs[j], ys[j]
            half_w = rng.randint(5, min(30, cx, CANVAS[0] - cx))
            half_h = rng.randint(5, min(30, cy, CANVAS[1] - cy))
            attrs = frozenset(
                rng.choice(values) for values in ATTRIBUTE_CLASSES.values()
            )
            objects.append(
                SceneObject(
                    id=f"o{j}",
                    name=rng.choice(pool),
                    box=(cx - half_w, cy - half_h, cx + half_w, cy + half_h),
                    attributes=attrs,
                    depth=round(rng.uniform(0.5, 10.0), 3),
                )
            )
        relations = []
        n_rel = rng.randint(1, min(3, count))
        for _ in range(n_rel):
            subj, obj = rng.sample(objects, 2)
            pred = rng.choice(PREDICATES)
            triple = (subj.id, pred, obj.id)
            if triple not in relations:
                relations.append(triple)
        yield Scene(scene_id=sid, objects=tuple(objects), relations=tuple(relations))


# ---------------------------------------------------------------------------
# patch tool API

def _check_patch(scene: Scene, patch: Patch) -> None:
    if patch.scene_ref != scene.scene_id:
        raise SceneLookupError(
            f"patch belongs to scene {patch.scene_ref!r}, not {scene.scene_id!r}"
        )


def _center_inside(obj: SceneObject, patch: Patch) -> bool:
    cx, cy = obj.center
    l, lo, r, u = patch.box
    return l <= cx <= r and lo <= cy <= u


def _find_order(obj: SceneObject) -> tuple:
    return (obj.box[0], obj.box[1], obj.id)


def tool_find(scene: Scene, within: Patch, name: str) -> list[Patch]:
    """Patches for objects named ``name`` whose box center lies inside
    ``within``, ordered by ascending left then lower."""
    _check_patch(scene, within)
    hits = [
        obj
        for obj in scene.objects
        if obj.name.lower() == name.lower() and _center_inside(obj, within)
    ]
    hits.sort(key=_find_order)
    return [Patch(scene_ref=scene.scene_id, box=o.box, matched_object=o.id) for o in hits]


def tool_exists(scene: Scene, within: Patch, name: str, config: ToolConfig | None = None) -> bool:
    result = len(tool_find(scene, within, name)) > 0
    if config is not None and config.flips("exists", scene.scene_id, within.box, name):
        result = not result
    return result


def tool_verify_property(
    scene: Scene, within: Patch, name: str, prop: str, config: ToolConfig | None = None
) -> bool:
    result = any(
        prop.lower() in {a.lower() for a in obj.attributes}
        for obj in scene.objects
        if obj.name.lower() == name.lower() and _center_inside(obj, within)
    )
    if config is not None and config.flips("verify", scene.scene_id, within.box, name, prop):
        result = not result
    return result


def tool_best_text_match(scene: Scene, patch: Patch, options: list[str]) -> str:
    """Option with maximal shared-lowercase-token overlap against the matched
    object's name + attributes; ties break toward the earlier option."""
    _check_patch(scene, patch)
    if not options:
        raise ValueError("best_text_match requires a non-empty options list")
    obj = None
    if patch.matched_object is not None:
        obj = scene.object_by_id(patch.matched_object)
    else:
        contained = sorted(
            (o for o in scene.objects if _center_inside(o, patch)), key=_find_order
        )
        obj = contained[0] if contained else None
    if obj is None:
        return options[0]
    target = {obj.name.lower()} | {a.lower() for a in obj.attributes}
    best, best_score = options[0], -1
    for opt in options:
        score = len(set(opt.lower().split()) & target)
        if score > best_score:
            best, best_score = opt, score
    return best


def tool_simple_query(scene: Scene, patch: Patch, question: str) -> str:
    _check_patch(scene, patch)
    return answer_oracle(scene, question)


def tool_compute_depth(scene: Scene, patch: Patch) -> float:
    """Matched object's depth, else the area-weighted mean depth of objects
    overlapping the patch (0.0 when nothing overlaps)."""
    _check_patch(scene, patch)
    if patch.matched_object is not None:
        return scene.object_by_id(patch.matched_object).depth
    total_area = 0.0
    acc = 0.0
    pl, plo, pr, pu = patch.box
    for obj in scene.objects:
        l, lo, r, u = obj.box
        w = min(r, pr) - max(l, pl)
        h = min(u, pu) - max(lo, plo)
        if w > 0 and h > 0:
            area = w * h
            total_area += area
            acc += area * obj.depth
    return acc / total_area if total_area > 0 else 0.0


def tool_distance(a: Patch, b: Patch) -> float:
    return math.hypot(
        a.horizontal_center - b.horizontal_center,
        a.vertical_center - b.vertical_center,
    )


# ---------------------------------------------------------------------------
# question grammar and answer oracle

# Each question form with its pattern, in the cycle order query generation
# offers them; no question matches two of them.
_QUESTION_FORMS = {
    "count": re.compile(r"^how many ([a-z ]+)$"),
    "exists": re.compile(r"^is there an? ([a-z ]+)$"),
    "attribute": re.compile(r"^what (" + "|".join(ATTRIBUTE_CLASSES) + r") is the ([a-z ]+)$"),
    "spatial": re.compile(r"^is the ([a-z ]+?) (" + "|".join(SPATIAL_RELATIONS) + r") the ([a-z ]+)$"),
    "relation": re.compile(r"^what is the ([a-z ]+?) (" + "|".join(PREDICATES) + r")$"),
}


def parse_question(question: str) -> tuple[str, tuple[str, ...]] | None:
    """The question's form and its parts, or None outside the grammar.

    The parts are: exists (name), count (singular name), attribute
    (attribute class, name), spatial (name, relation, name) and relation
    (name, predicate). Matching ignores case, a trailing "?" and
    surrounding spaces.
    """
    q = question.strip().lower().rstrip("?").strip()
    for form, pattern in _QUESTION_FORMS.items():
        m = pattern.match(q)
        if m:
            parts = tuple(part.strip() for part in m.groups())
            if form == "count" and parts[0].endswith("s"):
                parts = (parts[0][:-1],)
            return form, parts
    return None


def _first_named(scene: Scene, name: str) -> SceneObject | None:
    hits = sorted(
        (o for o in scene.objects if o.name.lower() == name.lower()), key=_find_order
    )
    return hits[0] if hits else None


def answer_oracle(scene: Scene, question: str) -> str:
    """Ground-truth answer for the restricted question grammar.

    Supported forms: existence ("is there a X"), counting ("how many Xs"),
    attribute ("what color is the X"), spatial comparison ("is the X left of
    the Y", also right of / above / below), and relation ("what is the X
    on"). Anything else returns the fixed token "unknown".
    """
    parsed = parse_question(question)
    if parsed is None:
        return "unknown"
    form, parts = parsed

    if form == "exists":
        return "yes" if _first_named(scene, parts[0]) else "no"

    if form == "count":
        return str(sum(1 for o in scene.objects if o.name.lower() == parts[0]))

    if form == "attribute":
        attr_class, name = parts
        obj = _first_named(scene, name)
        if obj is None:
            return "unknown"
        for attr in sorted(obj.attributes):
            if attr in ATTRIBUTE_CLASSES[attr_class]:
                return attr
        return "unknown"

    if form == "spatial":
        a_name, rel, b_name = parts
        a = _first_named(scene, a_name)
        b = _first_named(scene, b_name)
        if a is None or b is None:
            return "unknown"
        axis, op = SPATIAL_RELATIONS[rel]
        av = getattr(Patch(scene.scene_id, a.box), axis)
        bv = getattr(Patch(scene.scene_id, b.box), axis)
        return "yes" if (av < bv if op == "<" else av > bv) else "no"

    name, pred = parts
    subj = _first_named(scene, name)
    if subj is None:
        return "unknown"
    for s, p, o in scene.relations:
        if s == subj.id and p == pred:
            return scene.object_by_id(o).name
    return "unknown"


# ---------------------------------------------------------------------------
# query generation (pipeline plumbing: one query per scene)

def _unique_names(scene: Scene) -> list[str]:
    # Not collections.Counter: its first isinstance(generator, Mapping) check
    # adds ABC cache entries that outlive scene-gen amid its heap (peak RSS).
    names = [o.name for o in scene.objects]
    return sorted(n for n in set(names) if names.count(n) == 1)


def generate_queries(scenes: Iterable[Scene], seed: int) -> list[Query]:
    """Every query of ``query_stream``, as a list."""
    return list(query_stream(scenes, seed))


def query_stream(scenes: Iterable[Scene], seed: int) -> Iterator[Query]:
    """``make_query`` for each scene as it is taken from ``scenes``."""
    rng = random.Random(seed)
    for i, scene in enumerate(scenes):
        yield make_query(i, scene, rng)


def make_query(i: int, scene: Scene, rng: random.Random) -> Query:
    """Scene i's one well-posed query, drawn from the run's ``rng``; its
    expected answer comes from the oracle by construction. The scene is
    offered the question forms in ``_QUESTION_FORMS`` order, starting at
    form i mod 5, and takes the first that can plan a question for it.
    Attribute, spatial and relation need objects with unique names, so they
    often fall through to count or exists: at n = 500 with the default
    seeds the mix is count 242, exists 100, attribute 74, relation 49,
    spatial 35."""
    forms = list(_QUESTION_FORMS)
    start = i % len(forms)
    names_present = sorted({o.name for o in scene.objects})
    unique = _unique_names(scene)
    plans = (_plan_question(scene, form, rng, names_present, unique)
             for form in forms[start:] + forms[:start])
    # "count" and "exists" always plan a question, so one form does.
    question = next(q for q in plans if q)
    return Query(f"q{i:04d}", scene.scene_id, question, answer_oracle(scene, question))


def _plan_question(scene: Scene, form: str, rng: random.Random,
                   names_present: list[str], unique: list[str]) -> str | None:
    if form == "count":
        name = rng.choice(names_present)
        return f"how many {name}s"
    if form == "exists":
        # Mix present and absent names for yes/no balance.
        pool = names_present if rng.random() < 0.5 else NOUNS
        name = rng.choice(sorted(pool))
        article = "an" if name[0] in "aeiou" else "a"
        return f"is there {article} {name}"
    if form == "attribute":
        if not unique:
            return None
        name = rng.choice(unique)
        attr_class = rng.choice(sorted(ATTRIBUTE_CLASSES))
        return f"what {attr_class} is the {name}"
    if form == "spatial":
        if len(unique) < 2:
            return None
        a, b = rng.sample(unique, 2)
        rel = rng.choice(list(SPATIAL_RELATIONS))
        return f"is the {a} {rel} the {b}"
    if form == "relation":
        candidates = []
        for s, p, o in scene.relations:
            subj = scene.object_by_id(s)
            if subj.name not in unique:
                continue
            # Require a unique (subject, predicate) pair for well-posedness.
            if sum(1 for s2, p2, _ in scene.relations if s2 == s and p2 == p) == 1:
                candidates.append((subj.name, p))
        if not candidates:
            return None
        name, pred = rng.choice(sorted(candidates))
        return f"what is the {name} {pred}"


def load_queries(path: str | Path) -> list[Query]:
    """Read queries.jsonl: one ``Query`` per row, no ``query_id`` repeated."""
    return read_rows(path, Query, unique="query_id")
