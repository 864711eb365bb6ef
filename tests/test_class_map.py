"""The class table: ClassMap's ids, thing flags and id -> class index lookup,
and the ids it refuses to hold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoptic4d.errors import ParameterError
from panoptic4d.sequence import IGNORE_LABEL, ClassMap

from oracles import _class_index

# ids every lookup is asked about, whatever the map holds
EDGE_IDS = [0, 1, IGNORE_LABEL, 2**16 - 1, 2**16, -1, -(2**16), 2**40, -(2**40)]
EDGE_IDS += [2**63 - 1, -(2**63)]

writable_id = st.integers(0, 2**16 - 1).filter(lambda c: c != IGNORE_LABEL)


@st.composite
def class_maps(draw):
    ids = draw(st.lists(writable_id, min_size=1, max_size=12, unique=True))
    side = draw(st.sampled_from(["both", "things only", "stuff only"]))
    cut = {"both": draw(st.integers(0, len(ids))), "things only": len(ids), "stuff only": 0}[side]
    return ClassMap(thing_ids=tuple(ids[:cut]), stuff_ids=tuple(ids[cut:]))


@given(
    class_maps(),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20),
    st.lists(st.integers(0, 20), max_size=20),
)
@settings(max_examples=300)
def test_index_matches_a_dict_lookup(cm, values, picks):
    lookup = {c: i for i, c in enumerate(sorted(set(cm.thing_ids) | set(cm.stuff_ids)))}
    # the map's own ids, the edge ids and arbitrary int64 values
    queries = [cm.all_ids[k % cm.ids.size] for k in picks] + EDGE_IDS + values
    got = cm.index(np.array(queries, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [lookup.get(v, -1) for v in queries]
    assert got.tolist() == _class_index(cm.ids, np.array(queries, dtype=np.int64)).tolist()
    assert cm.index(np.zeros(0, dtype=np.int64)).shape == (0,)


@given(class_maps())
@settings(max_examples=100)
def test_ids_and_thing_agree_with_the_tuples(cm):
    assert cm.ids.dtype == np.int64
    assert cm.ids.tolist() == list(cm.all_ids) == sorted(set(cm.thing_ids) | set(cm.stuff_ids))
    assert cm.thing.tolist() == [c in cm.thing_ids for c in cm.all_ids]


def test_index_takes_other_integer_dtypes_and_shapes():
    cm = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))
    assert cm.index(np.array([4, 255, 1], dtype=np.uint16)).tolist() == [3, -1, 0]
    assert cm.index(np.array([[3, 0], [2, 9]], dtype=np.int32)).tolist() == [[2, -1], [1, -1]]
    assert cm.index([2, -7]).tolist() == [1, -1]


def test_tables_are_read_only():
    cm = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))
    for table in (cm.ids, cm.thing):
        with pytest.raises(ValueError):
            table[0] = 9
    assert cm == ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))
    assert hash(cm) == hash(ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4)))


@pytest.mark.parametrize("bad", [IGNORE_LABEL, 2**16, 70000, -1, 2**40])
@pytest.mark.parametrize("side", ["thing_ids", "stuff_ids"])
def test_unwritable_ids_rejected_naming_the_id(bad, side):
    fields = {"thing_ids": (1,), "stuff_ids": (3,)}
    fields[side] += (bad,)
    with pytest.raises(ParameterError, match=rf"class id {bad}\b"):
        ClassMap(**fields)


def test_largest_writable_ids_load():
    cm = ClassMap(thing_ids=(0, 254), stuff_ids=(256, 2**16 - 1))
    assert cm.index([0, 254, 255, 256, 2**16 - 1, 2**16]).tolist() == [0, 1, -1, 2, 3, -1]
