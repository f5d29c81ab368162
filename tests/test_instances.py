"""JSON instance documents: parsing, validation problems, rendering."""
import json

import pytest

from crossed_commutant import (
    builtin_instance,
    builtin_names,
    load_instance,
    parse_instance,
    render_instance,
)
from crossed_commutant.errors import InstanceFormatError
from crossed_commutant.instances import MAX_WINDOW


def test_parse_unrefined_real_line():
    inst = parse_instance({"type": "real_line", "jump_points": ["0"], "perm": [1, 0, 2]})
    assert inst.kind == "real_line"
    assert not inst.refined
    assert inst.window == 6
    assert inst.base_map is inst.refined_map
    assert inst.analysis_partition.piece_count == 3


def test_parse_respects_window():
    inst = parse_instance(
        {"type": "real_line", "jump_points": [], "perm": [0], "window": 9}
    )
    assert inst.window == 9


def test_parse_refined_real_line():
    inst = parse_instance(builtin_instance("two-intervals-crossed"))
    assert inst.refined
    assert inst.base.piece_count == 3
    assert inst.analysis_partition.piece_count == 7
    assert inst.base_map.perm == (1, 0, 2)
    assert inst.refined_map.perm == (2, 3, 1, 0, 6, 5, 4)


def test_parse_abstract_instances():
    flat = parse_instance({"type": "abstract", "pieces": 3, "perm": [1, 2, 0]})
    assert flat.kind == "abstract" and not flat.refined
    deep = parse_instance(
        {
            "type": "abstract",
            "pieces": 2,
            "cells": {"0": 2, "1": 2},
            "base_perm": [1, 0],
            "refined_perm": [2, 3, 0, 1],
        }
    )
    assert deep.refined
    assert deep.analysis_partition.piece_count == 4


def test_parse_rejects_unknown_type():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance({"type": "circle"})
    assert any("real_line" in p for p in err.value.problems)


def test_parse_collects_multiple_problems():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(
            {"type": "real_line", "jump_points": ["x", "1/0"], "perm": [0]}
        )
    assert len(err.value.problems) >= 2
    assert any("jump_points[0]" in p for p in err.value.problems)


def test_parse_rejects_float_jump():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance({"type": "real_line", "jump_points": [0.5], "perm": [0, 1, 2]})
    assert any("jump_points[0]" in p for p in err.value.problems)


def test_parse_rejects_stray_perm_keys():
    doc = builtin_instance("one-interval-swap")
    doc["perm"] = [0]
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(doc)
    assert any("base_perm and refined_perm" in p for p in err.value.problems)

    with pytest.raises(InstanceFormatError) as err:
        parse_instance(
            {"type": "real_line", "jump_points": [], "perm": [0], "base_perm": [0]}
        )
    assert any("single perm" in p for p in err.value.problems)


def test_parse_rejects_wrong_perm_shape():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance({"type": "real_line", "jump_points": ["0"], "perm": [0, 1]})
    assert any("expected 3 entries" in p for p in err.value.problems)
    with pytest.raises(InstanceFormatError):
        parse_instance({"type": "real_line", "jump_points": ["0"], "perm": [0, 0, 1]})
    with pytest.raises(InstanceFormatError):
        parse_instance({"type": "real_line", "jump_points": ["0"], "perm": [0, True, 2]})


def test_parse_rejects_point_outside_interval():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(
            {
                "type": "real_line",
                "jump_points": ["0"],
                "additions": {"0": ["7"]},
                "base_perm": [0, 1, 2],
                "refined_perm": [0, 1, 2, 3],
            }
        )
    assert any("additions" in p for p in err.value.problems)


def test_parse_rejects_bad_window():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(
            {"type": "real_line", "jump_points": [], "perm": [0], "window": 0}
        )
    assert any("window" in p for p in err.value.problems)


def test_load_instance_reports_path_problems(tmp_path):
    with pytest.raises(InstanceFormatError) as err:
        load_instance(str(tmp_path / "missing.json"))
    assert any("cannot read" in p for p in err.value.problems)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(InstanceFormatError) as err:
        load_instance(str(bad))
    assert any("line 1" in p for p in err.value.problems)


def test_load_instance_round_trip(tmp_path):
    doc = builtin_instance("two-intervals-crossed")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(str(path))
    assert inst.refined_map.perm == (2, 3, 1, 0, 6, 5, 4)


def test_render_round_trips_every_builtin():
    for name in builtin_names():
        inst = parse_instance(builtin_instance(name))
        doc = render_instance(inst)
        again = parse_instance(doc)
        assert again.kind == inst.kind
        assert again.window == inst.window
        assert again.refined == inst.refined
        assert again.base_map.perm == inst.base_map.perm
        assert again.refined_map.perm == inst.refined_map.perm
        assert [p.label for p in again.analysis_partition.pieces] == [
            p.label for p in inst.analysis_partition.pieces
        ]


def test_render_round_trips_abstract():
    inst = parse_instance(
        {
            "type": "abstract",
            "pieces": 2,
            "cells": {"0": 3, "1": 1},
            "base_perm": [0, 1],
            "refined_perm": [1, 2, 0, 3],
            "window": 4,
        }
    )
    doc = render_instance(inst)
    assert doc["cells"] == {"0": 3, "1": 1}
    again = parse_instance(doc)
    assert again.refined_map.perm == inst.refined_map.perm
    assert again.window == 4


def test_builtin_names_are_stable():
    assert builtin_names() == (
        "one-interval-identity",
        "one-interval-swap",
        "one-interval-3cycle",
        "one-interval-3cycle-pointswap",
        "two-intervals-identity",
        "two-intervals-one-swap",
        "two-intervals-crossed",
    )
    with pytest.raises(KeyError):
        builtin_instance("unknown")


def test_window_is_bounded():
    doc = {"type": "abstract", "pieces": 1, "perm": [0], "window": MAX_WINDOW}
    assert parse_instance(doc).window == MAX_WINDOW
    for window in (MAX_WINDOW + 1, 1_000_000_000, 0):
        with pytest.raises(InstanceFormatError, match=f"at most {MAX_WINDOW}"):
            parse_instance(dict(doc, window=window))
