"""Property: the columnar RuleIndex answers exactly like the linear scan.

Hypothesis draws rulesets over a fixed three-attribute encoding (one
categorical, one partitioned and one unpartitioned quantitative
attribute) and records that exercise every encoding edge: absent
attributes, unseen labels, out-of-range quantitative values (clamped)
and unseen unpartitioned values (no code).  Rulesets may be empty, may
repeat rules, and include rules whose antecedent constrains a single
attribute and leaves every other dimension unconstrained.  Scores are
drawn from a small set so ties exercise the canonical-order tie-break.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.items import Item
from repro.core.mapper import AttributeMapping
from repro.core.partitioner import Partitioning
from repro.core.rules import QuantitativeRule
from repro.rules import RuleIndex
from repro.table.schema import AttributeKind

LABELS = ("red", "green", "blue")
EDGES = (0.0, 10.0, 20.0, 30.0, 40.0)
VALUES = (1.0, 2.0, 3.0, 5.0, 8.0)

MAPPINGS = (
    AttributeMapping(
        name="color",
        kind=AttributeKind.CATEGORICAL,
        cardinality=len(LABELS),
        labels=LABELS,
    ),
    AttributeMapping(
        name="income",
        kind=AttributeKind.QUANTITATIVE,
        cardinality=len(EDGES) - 1,
        partitioning=Partitioning(edges=EDGES, partitioned=True),
    ),
    AttributeMapping(
        name="age",
        kind=AttributeKind.QUANTITATIVE,
        cardinality=len(VALUES),
        partitioning=Partitioning(
            edges=VALUES, partitioned=False, values=VALUES
        ),
    ),
)
NAMES = tuple(m.name for m in MAPPINGS)


@st.composite
def items(draw, attribute):
    cardinality = MAPPINGS[attribute].cardinality
    lo = draw(st.integers(0, cardinality - 1))
    if MAPPINGS[attribute].kind is AttributeKind.CATEGORICAL:
        return Item(attribute, lo, lo)
    return Item(attribute, lo, draw(st.integers(lo, cardinality - 1)))


@st.composite
def rules(draw):
    attributes = draw(st.permutations(range(len(MAPPINGS))))
    split = draw(st.integers(1, len(MAPPINGS) - 1))
    width = draw(st.integers(split + 1, len(MAPPINGS)))
    antecedent = tuple(
        draw(items(a)) for a in sorted(attributes[:split])
    )
    consequent = tuple(
        draw(items(a)) for a in sorted(attributes[split:width])
    )
    return QuantitativeRule(
        antecedent=antecedent,
        consequent=consequent,
        support=draw(st.sampled_from([0.1, 0.2])),
        confidence=draw(st.sampled_from([0.5, 0.75, 1.0])),
    )


rulesets = st.lists(
    st.tuples(rules(), st.sampled_from([None, 1.0, 1.5])), max_size=25
)

records = st.fixed_dictionaries(
    {},
    optional={
        "color": st.sampled_from(LABELS + ("unseen",)),
        "income": st.floats(-100.0, 200.0),
        "age": st.sampled_from(VALUES + (4.0, -7.0, 99.0)),
    },
)


class TestColumnarEqualsLinearScan:
    @settings(max_examples=150, deadline=None)
    @given(rulesets, st.lists(records, min_size=1, max_size=8))
    def test_match_and_predict_agree(self, ruleset, queries):
        served = [rule for rule, _ in ruleset]
        lifts = [lift for _, lift in ruleset]
        columnar = RuleIndex(served, MAPPINGS, lifts=lifts)
        linear = RuleIndex(served, MAPPINGS, lifts=lifts, use_index=False)
        assert columnar.indexed and not linear.indexed
        for record in queries:
            assert columnar.match(record) == linear.match(record)
            for target in NAMES:
                assert columnar.predict(record, target) == linear.predict(
                    record, target
                )

    def test_single_item_antecedent_ignores_other_dimensions(self):
        rule = QuantitativeRule(
            antecedent=(Item(1, 1, 2),),
            consequent=(Item(0, 2, 2),),
            support=0.1,
            confidence=0.9,
        )
        columnar = RuleIndex([rule], MAPPINGS)
        linear = RuleIndex([rule], MAPPINGS, use_index=False)
        for record in (
            {"income": 15.0},
            {"income": 15.0, "color": "unseen", "age": 99.0},
            {"income": 25.0, "color": "red", "age": 8.0},
        ):
            assert [m.rule for m in columnar.match(record)] == [rule]
            assert columnar.match(record) == linear.match(record)
        assert columnar.match({"income": 5.0}) == []
        assert columnar.match({}) == []

    def test_empty_ruleset_matches_nothing(self):
        for use_index in (True, False):
            index = RuleIndex([], MAPPINGS, use_index=use_index)
            assert index.match({"color": "red", "income": 12.0}) == []
            assert index.predict({}, "color").interval is None
