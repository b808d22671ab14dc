"""Answer checks; every mismatch counts as one failed operation.

The checks run outside the timed window.  Server answers are compared
with a *mirror*: an in-process, memory-backed ``MergeService`` that was
given the same acknowledged writes in the same order.  Component ids
are compared only up to renaming (a bijection between the server's and
the mirror's ids), because id allocation is not part of the answer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional


def plain(value: Any) -> Any:
    """JSON-shaped copy (tuples become lists), as the wire would carry it."""
    return json.loads(json.dumps(value))


def query_answer(service: Any, cls: str) -> Optional[Dict[str, Any]]:
    """The mirror's answer for GET /v1/query/{cls} (``None`` = 404)."""
    from repro.exceptions import UnknownClassError

    try:
        answer = plain(service.query(cls).to_dict())
    except UnknownClassError:
        return None
    answer["format"] = "repro.api/1"
    return answer


def schema_card(service: Any, name: str) -> Any:
    """The mirror's answer for GET /v1/schemas/{name} (or an error tag)."""
    from repro.exceptions import RetiredSchemaError, UnknownSchemaError

    try:
        card = plain(service.schema_info(name))
    except RetiredSchemaError:
        return "retired"
    except UnknownSchemaError:
        return "unknown"
    card["format"] = "repro.api/1"
    return card


class ComponentMap:
    """Checks that server component ids rename mirror ids consistently."""

    def __init__(self) -> None:
        self._forward: Dict[Any, Any] = {}
        self._backward: Dict[Any, Any] = {}

    def same(self, server_id: Any, mirror_id: Any) -> bool:
        if server_id is None or mirror_id is None:
            return server_id is None and mirror_id is None
        known = self._forward.setdefault(server_id, mirror_id)
        back = self._backward.setdefault(mirror_id, server_id)
        return known == mirror_id and back == server_id


def same_answer(got: Any, want: Any, components: ComponentMap) -> bool:
    """Equal up to component renaming (``None`` = 404 on both sides)."""
    if not isinstance(got, dict) or not isinstance(want, dict):
        return got == want
    rest_got = {k: v for k, v in got.items() if k != "component"}
    rest_want = {k: v for k, v in want.items() if k != "component"}
    return rest_got == rest_want and components.same(
        got.get("component"), want.get("component")
    )


def state_digest(
    service: Any, classes: Iterable[str], names: Iterable[str]
) -> Dict[str, Any]:
    """Every class's query answer and every name's lifecycle card."""
    return {
        "classes": {cls: query_answer(service, cls) for cls in sorted(classes)},
        "names": {name: schema_card(service, name) for name in sorted(names)},
    }


def digest_mismatches(got: Mapping[str, Any], want: Mapping[str, Any]) -> List[str]:
    """The keys where a recovered digest differs from the mirror's."""
    components = ComponentMap()
    bad = []
    for section in ("classes", "names"):
        got_part, want_part = got.get(section, {}), want.get(section, {})
        for key in sorted(set(got_part) | set(want_part)):
            if not same_answer(got_part.get(key), want_part.get(key), components):
                bad.append(f"{section}/{key}")
    return bad


def merge_failures(views: List[Any], result: Any) -> List[str]:
    """Why an ``upper_merge`` result is wrong: not proper, or not above
    the weak merge of its inputs in the information ordering."""
    from repro.core.merge import weak_merge
    from repro.core.ordering import is_sub
    from repro.core.proper import is_proper

    problems = []
    if not is_proper(result):
        problems.append("result is not proper")
    if not is_sub(weak_merge(*views), result):
        problems.append("weak merge is not is_sub of the result")
    return problems
