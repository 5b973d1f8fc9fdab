import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vewane import core
from vewane.core import (
    Cause,
    DatasetValidationError,
    RowIds,
    VEBasisSpec,
    Violation,
    check_records,
    eval_ve_basis,
    f_value,
    read_events_csv,
    validate_dataset,
    ve_basis_pieces,
    ve_from_f,
    write_events_csv,
)
from vewane.simulate import ScenarioSpec, simulate_cohort

from .conftest import Row, dataset_rows, make_records
from .oracles import participant_ids, read_events_csv_rows

RAMP = VEBasisSpec("ramp", ramp_length=14 / 365)
LINEAR = VEBasisSpec("linear")


class TestBasis:
    def test_linear(self):
        assert np.allclose(eval_ve_basis(LINEAR, 0.5), [1.0, 0.5])

    def test_ramp_pre(self):
        assert np.allclose(eval_ve_basis(RAMP, 0.01), [1.0, 0.0, 0.0])

    def test_ramp_post(self):
        out = eval_ve_basis(RAMP, 14 / 365 + 0.1)
        assert np.allclose(out, [0.0, 1.0, 0.1])

    def test_ramp_boundary_is_post(self):
        # flat segment is tau < r, so tau == r belongs to the linear segment
        out = eval_ve_basis(RAMP, 14 / 365)
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            eval_ve_basis(LINEAR, -0.1)

    def test_ramp_exactly_one_indicator(self):
        for tau in np.linspace(0, 0.4, 50):
            v = eval_ve_basis(RAMP, tau)
            assert v[0] + v[1] == 1.0

    def test_pieces_match_eval(self):
        # tau = fl(t - V) for day-unit times lands on both sides of r = 14/365
        tau = np.concatenate([np.linspace(0, 0.4, 41), [(d + 14) / 365 - d / 365 for d in range(420)]])
        for basis in (VEBasisSpec("constant"), LINEAR, RAMP):
            pieces = ve_basis_pieces(basis)
            stops = [start for start, _, _ in pieces[1:]] + [np.inf]
            got = sum(
                ((start <= tau) & (tau < stop))[:, None] * (a + c * tau[:, None])
                for (start, a, c), stop in zip(pieces, stops)
            )
            assert np.array_equal(got, eval_ve_basis(basis, tau))

    def test_constant(self):
        assert np.allclose(eval_ve_basis(VEBasisSpec("constant"), 0.3), [1.0])

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            VEBasisSpec("quadratic")
        with pytest.raises(ValueError):
            VEBasisSpec("ramp")


class TestFValue:
    def test_constant_effect(self):
        assert f_value([-1.0, 0.0], LINEAR, 0.7) == pytest.approx(-1.0)

    def test_waning_to_zero(self):
        assert f_value([-1.0, 1.0], LINEAR, 1.0) == pytest.approx(0.0)

    def test_null(self):
        assert f_value([0.0, 0.0], LINEAR, 0.123) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            f_value([1.0, 2.0, 3.0], LINEAR, 0.5)

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        tau=st.floats(0, 2),
    )
    def test_linear_in_beta(self, a, b, tau):
        b1 = np.array([0.5, -1.0])
        b2 = np.array([-0.25, 2.0])
        lhs = f_value(a * b1 + b * b2, LINEAR, tau)
        rhs = a * f_value(b1, LINEAR, tau) + b * f_value(b2, LINEAR, tau)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestVeFromF:
    def test_moderate(self):
        assert ve_from_f(-1.0) == pytest.approx(0.63212, abs=1e-5)

    def test_null(self):
        assert ve_from_f(0.0) == 0.0

    def test_log_half(self):
        assert ve_from_f(math.log(0.5)) == pytest.approx(0.5)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            ve_from_f(float("nan"))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_strictly_decreasing(self, f1, f2):
        if f1 + 1e-9 < f2:
            assert ve_from_f(f1) > ve_from_f(f2)

    def test_curve_composition_is_pure(self):
        beta = np.array([-1.0, 0.7])
        grid = np.linspace(0, 1, 23)
        once = ve_from_f(f_value(beta, LINEAR, grid))
        again = ve_from_f(f_value(beta, LINEAR, grid))
        assert np.array_equal(once, again)


class TestValidation:
    def test_valid(self):
        ds = make_records(
            [
                ("a", 0.2, 0.5, Cause.PREVENTABLE),
                ("b", None, 0.9, Cause.IRRELEVANT),
                ("c", 0.4, 1.0, Cause.CENSORED),
            ]
        )
        assert len(ds) == 3

    def test_negative_event_time(self):
        columns = {"id": ["a"], "vax": [np.nan], "time": [-0.1], "cause": [-1]}
        bad = check_records(columns, 1.0)
        assert bad and bad[0].field == "event_time" and "negative" in bad[0].reason

    def test_strain_on_irrelevant(self):
        columns = {"id": ["a"], "vax": [np.nan], "time": [0.5], "cause": [0], "strain": [1]}
        bad = check_records(columns, 1.0)
        assert bad and bad[0].field == "strain"

    def test_duplicate_ids_and_horizon(self):
        columns = {"id": ["a", "a"], "vax": [np.nan, np.nan], "time": [0.5, 1.5], "cause": [0, 0]}
        bad = check_records(columns, 1.0)
        fields = {v.field for v in bad}
        assert fields == {"id", "event_time"}
        with pytest.raises(DatasetValidationError):
            validate_dataset(columns, 1.0)

    def test_vaccination_after_event_allowed(self):
        columns = {"id": ["a"], "vax": [0.9], "time": [0.5], "cause": [1]}
        assert not check_records(columns, 1.0)

    def test_column_violations(self):
        columns = {
            "id": ["a", "a", "b"],
            "vax": [-0.1, np.nan, math.inf],
            "time": [0.5, 1.5, -1.0],
            "cause": [0, 1, -1],
            "strain": [1, 0, 0],
        }
        expected = [
            (0, "vax_time"), (0, "strain"), (1, "id"), (1, "event_time"), (2, "event_time"), (2, "vax_time"),
        ]
        assert [(v.index, v.field) for v in check_records(columns, 1.0)] == expected

    def test_unknown_cause_code(self):
        columns = {"id": ["a"], "vax": [np.nan], "time": [0.5], "cause": [2]}
        with pytest.raises(DatasetValidationError, match="unknown cause code"):
            validate_dataset(columns, 1.0)

    def test_non_mapping_rejected(self):
        rows = [("a", None, 0.5, Cause.IRRELEVANT)]
        for check in (check_records, validate_dataset):
            with pytest.raises(TypeError, match="mapping of columns"):
                check(rows, 1.0)


EVENTS_HEADER = "id,vax_time,event_time,cause,strain\n"
EVENTS_TEXTS = {
    "quoted ids with commas": EVENTS_HEADER + '"p,1",0.25,0.5,preventable,1\n"p,2",,0.75,irrelevant,\n',
    "quoted ids": EVENTS_HEADER + '"p1",0.25,0.5,preventable,1\n"p2",,0.75,irrelevant,\n',
    "blank lines": EVENTS_HEADER + "\na,0.25,0.5,preventable,1\n\n\nb,,0.75,censored,\n\n",
    "cr endings": EVENTS_HEADER.replace("\n", "\r") + "a,0.25,0.5,preventable,1\rb,,0.75,censored,\r",
    "mixed endings": EVENTS_HEADER + "a,0.25,0.5,preventable,1\r\nb,,0.75,censored,\n",
    "no strain column": "id,vax_time,event_time,cause\na,0.25,0.5,preventable\nb,,0.75,irrelevant\n",
    "missing strain field": EVENTS_HEADER + "a,0.25,0.5,preventable,2\nb,,0.75,irrelevant\n",
    "spaces": EVENTS_HEADER + "a, 0.25 ,0.5, preventable , 2 \nb,  ,0.75,  irrelevant,  \n",
    "nan vax": EVENTS_HEADER + "a,nan,0.5,irrelevant,\nb,0.1,0.75,preventable,1\n",
    "unknown cause": EVENTS_HEADER + "a,,0.5,censored,\n\nb,,0.7,sick,\n",
    "invalid values": EVENTS_HEADER + "a,-1,0.5,censored,2\na,,0.7,irrelevant,\n",
    "header only": EVENTS_HEADER,
    "lf no final ending": EVENTS_HEADER + "a,0.25,0.5,preventable,1\nb,,0.75,censored,",
    "crlf no final ending": EVENTS_HEADER.replace("\n", "\r\n") + "a,0.25,0.5,preventable,1\r\nb,,0.75,censored,2",
    "compensating ragged rows": EVENTS_HEADER + "a,0.25,0.5,preventable,1,9\nb,,0.75,irrelevant\nc,0.1,0.2,censored,\n",
    "compensating ragged rows apart": EVENTS_HEADER
    + "a,0.25,0.5,preventable,1,x,y\nb,,0.75,irrelevant,\nc,0.1,0.2,censored\nd,,0.3,censored\n",
    "lone cr inside a field": EVENTS_HEADER + "a,0.25,0.5,preventable,1\rb,,0.75,censored,\nc,,0.8,irrelevant,\n",
    "blank final line": EVENTS_HEADER + "a,0.25,0.5,preventable,1\nb,,0.75,censored,\n\n",
    "padded": EVENTS_HEADER + "a, 0.25\t, 0.5 ,\tpreventable , 2 \n b ,\t,0.75 ,irrelevant\t,\t\n",
    "non-ascii ids": EVENTS_HEADER + "é1,0.25,0.5,preventable,1\nβ-2,,0.75,irrelevant,\n",
    "one column": "id\na\nb\n",
    "empty file": "",
    "crlf header only": EVENTS_HEADER.replace("\n", "\r\n"),
}
# the cases read by one comma split; every other case is parsed by `csv.reader`
ALIGNED_CASES = {
    "no strain column", "spaces", "nan vax", "invalid values", "header only", "lf no final ending",
    "crlf no final ending", "padded", "non-ascii ids", "crlf header only",
}


def _padded(draw, field: str) -> str:
    return draw(st.sampled_from(["", " ", "\t"])) + field + draw(st.sampled_from(["", " ", "  "]))


@st.composite
def events_texts(draw):
    """Events CSV texts with any line endings, blank lines, padded fields,
    `repr` floats and empty vax and strain fields."""
    floats = st.floats(0.0, 2.0, allow_nan=False).map(repr)
    eols = st.sampled_from(["\n", "\r\n"] if draw(st.booleans()) else ["\n", "\r\n", "\r"])
    lines = ["id,vax_time,event_time,cause,strain"]
    for k in range(draw(st.integers(0, 8))):
        cause = draw(st.sampled_from(["censored", "irrelevant", "preventable"]))
        strain = draw(st.sampled_from(["", "1", "2"])) if cause == "preventable" else ""
        fields = [
            draw(st.text("abé9-_", min_size=1, max_size=4)) + str(k),
            _padded(draw, draw(st.sampled_from(["", "nan"]) | floats)),
            _padded(draw, draw(floats)),
            _padded(draw, cause),
            _padded(draw, strain),
        ]
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
    eol = draw(eols)
    ends = [eol if draw(st.integers(0, 4)) else draw(eols) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def _read_or_violations(read, path):
    try:
        return read(path)
    except DatasetValidationError as err:
        return err.violations


def assert_reads_like_oracle(path):
    """`read_events_csv` gives the ids, bit-identical columns, horizon and
    violations of the row-by-row `csv.reader` oracle."""
    got, want = (_read_or_violations(read, path) for read in (read_events_csv, read_events_csv_rows))
    if isinstance(want, list):
        assert got == want
        return
    assert got.ids == want.ids and got.horizon == want.horizon
    for name, column in want.arrays().items():
        column_got = got.arrays()[name]
        assert column_got.dtype == column.dtype and column_got.tobytes() == column.tobytes(), name


class TestRowIds:
    @pytest.mark.parametrize("n", [0, 1, 3, 1_000_001])
    def test_reads_as_the_list(self, n):
        ids, want = RowIds(n), participant_ids(n)
        assert len(ids) == n and list(ids) == want and ids == want
        step = max(1, n // 4)
        for part in (slice(1, -1, step), slice(None, None, -step), slice(n - 2, None), slice(n, None)):
            assert ids[part] == want[part]
        for k in {0, 1, n // 2, n - 1} & set(range(n)):
            assert ids[k] == want[k] and ids[k - n] == want[k - n]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                ids[k]

    def test_equality(self):
        assert RowIds(3) == RowIds(3) and RowIds(3) != RowIds(4) and participant_ids(3) == RowIds(3)
        assert RowIds(3) != ["p000000", "p000001", "p000009"] and RowIds(3) != participant_ids(2)
        assert RowIds(1) != "p000000"

    def test_list_ids_still_checked_for_duplicates(self):
        columns = {"id": participant_ids(3) + ["p000001"], "vax": [np.nan] * 4, "time": [0.5] * 4, "cause": [0] * 4}
        bad = check_records(columns, 1.0)
        assert [(v.index, v.field) for v in bad] == [(3, "id")]
        assert not check_records(dict(columns, id=RowIds(4)), 1.0)


class TestEventsCsv:
    def test_cohort_matches_oracle(self, tmp_path):
        ds, _ = simulate_cohort(ScenarioSpec(n=5000, beta_true=(-1.0, 1.0), seed=17))
        path = tmp_path / "events.csv"
        write_events_csv(ds, path)
        assert b"\r\n" in path.read_bytes()
        assert_reads_like_oracle(path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        assert_reads_like_oracle(path)
        assert read_events_csv(path).ids == ds.ids

    @pytest.mark.parametrize("case", sorted(EVENTS_TEXTS))
    def test_matches_oracle(self, case, tmp_path):
        path = tmp_path / "events.csv"
        with open(path, "w", newline="") as fh:
            fh.write(EVENTS_TEXTS[case])
        assert_reads_like_oracle(path)

    @pytest.mark.parametrize("case", sorted(EVENTS_TEXTS))
    def test_read_path(self, case):
        assert (core._aligned_columns(EVENTS_TEXTS[case]) is not None) == (case in ALIGNED_CASES)

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_written_file_is_split_once(self, eol, tmp_path, monkeypatch):
        ds, _ = simulate_cohort(ScenarioSpec(n=2000, beta_true=(-1.0, 1.0), seed=23))
        path = tmp_path / "events.csv"
        write_events_csv(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", eol.encode()))

        def no_fallback(text):
            raise AssertionError("csv.reader fallback taken")

        monkeypatch.setattr(core, "_reader_columns", no_fallback)
        assert_reads_like_oracle(path)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_texts_match_oracle(self, data, tmp_path):
        text = data.draw(events_texts())
        path = tmp_path / "events.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert_reads_like_oracle(path)

    def test_short_row_is_a_violation(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(EVENTS_HEADER + "p1,0.1,0.5,preventable,1\n\np2,0.2\np3,,0.6,irrelevant\np4\n")
        with pytest.raises(DatasetValidationError) as err:
            read_events_csv(path)
        assert err.value.violations == [Violation(k, "row", "fewer than 4 fields") for k in (1, 3)]

    def test_round_trip(self, tmp_path):
        ds = make_records(
            [
                ("a", 0.25, 0.5, Cause.PREVENTABLE, 2),
                ("b", None, 0.75, Cause.IRRELEVANT),
                ("c", 1.05, 1.0, Cause.CENSORED),
            ]
        )
        arr = ds.arrays()
        assert np.array_equal(arr["vax"], [0.25, np.nan, 1.05], equal_nan=True)
        assert arr["cause"].tolist() == [1, 0, -1] and arr["strain"].tolist() == [2, 0, 0]
        path = tmp_path / "events.csv"
        write_events_csv(ds, path)
        back = read_events_csv(path, horizon=1.0)
        assert list(dataset_rows(back)) == list(dataset_rows(ds))

    def test_optional_strain_blank_lines_and_unknown_cause(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("id,vax_time,event_time,cause\na,0.25,0.5,preventable\n\nb,,0.75,irrelevant\n")
        ds = read_events_csv(path)
        assert list(dataset_rows(ds)) == [
            Row("a", 0.25, 0.5, Cause.PREVENTABLE, None),
            Row("b", None, 0.75, Cause.IRRELEVANT, None),
        ]
        assert ds.horizon == 0.75
        path.write_text("id,vax_time,event_time,cause\na,,0.5,censored\nb,,0.7,sick\n")
        with pytest.raises(DatasetValidationError) as err:
            read_events_csv(path)
        assert err.value.violations == [Violation(1, "cause", "unknown cause 'sick'")]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,event_time\n1,0.5\n")
        with pytest.raises(DatasetValidationError):
            read_events_csv(path)
