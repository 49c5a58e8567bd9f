"""Serialization: the JSON record text and the CSV tables, byte for byte."""

import csv
import json
import math
import random
from decimal import ROUND_HALF_EVEN, Context, Decimal

import numpy as np
import pytest

from qccsim.cli import main
from qccsim.errors import ValidationError
from qccsim.pointer import density, make_gaussian, superpose, support, to_grid, translate
from qccsim.serialize import (
    Table,
    _float_texts,
    dumps_json,
    format_float,
    write_grid_csv,
    write_sweep_csv,
    write_trials_csv,
)
from qccsim.tolerances import BLOCK_ROWS

from oracles import grid_csv_oracle, rows_as_dicts, table_csv_oracle, trials_csv_oracle

# One object through every branch of the JSON writer.
EVERY_BRANCH = {
    "empty_object": {},
    "empty_list": [],
    "non_finite": [math.nan, math.inf, -math.inf, np.float64(math.nan)],
    "whole": 1.0,
    "tenth": 0.1,
    "numpy": {"float64": np.float64(0.25), "int64": np.int64(-3), "bool_": np.bool_(True)},
    "tuple": (1, False, None, [{}]),
    "array": np.array([0.5, -2.0]),
    "text": 'Ψ "cat"\n',
}
EVERY_BRANCH_TEXT = """{
  "empty_object": {},
  "empty_list": [],
  "non_finite": [
    null,
    null,
    null,
    null
  ],
  "whole": 1,
  "tenth": 0.10000000000000001,
  "numpy": {
    "float64": 0.25,
    "int64": -3,
    "bool_": true
  },
  "tuple": [
    1,
    false,
    null,
    [
      {}
    ]
  ],
  "array": [
    0.5,
    -2
  ],
  "text": "\\u03a8 \\"cat\\"\\n"
}
"""


class TestJson:
    def test_every_branch_byte_exact(self):
        assert dumps_json(EVERY_BRANCH) == EVERY_BRANCH_TEXT

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"ok": {1: 2.0}}, "JSON object keys must be strings, got 1"),
            ({"ok": [1j]}, "cannot serialize complex to JSON"),
        ],
    )
    def test_unserializable_input_is_a_validation_error(self, obj, message):
        with pytest.raises(ValidationError) as info:
            dumps_json(obj)
        assert str(info.value) == message

    def test_nan_sweep_cell_is_nan_in_csv_and_null_in_the_record(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", "neutron-absorber", "--M", "0:1:3", "--csv", str(target)]) == 0
        assert target.read_text().splitlines()[:2] == [
            "param,ratio_exact,ratio_predicted,inferred_wv,expansion_error",
            "0,1,1,nan,0",
        ]
        assert '"inferred_wv": null,' in capsys.readouterr().out


# Cells a table must render exactly: non-finite, signed zero, the smallest subnormal, the largest float.
EDGE_CELLS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)


def random_columns(rng: random.Random, n_columns: int, n_rows: int) -> list[list[float]]:
    def cell() -> float:
        return rng.choice(EDGE_CELLS) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
    return [[cell() for _ in range(n_rows)] for _ in range(n_columns)]


class TestTableAgainstRowOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_rows", [1, 300])
    @pytest.mark.parametrize("nest", [lambda rows: {"rows": rows}, lambda rows: {"results": {"runs": [{"rows": rows}]}}],
                             ids=["depth1", "depth3"])
    def test_record_text_equals_rows_of_dicts(self, seed, n_rows, nest):
        rng = random.Random(seed)
        header = [f"c{k}" for k in range(rng.randint(1, 8))]
        columns = random_columns(rng, len(header), n_rows)
        assert dumps_json(nest(Table(header, columns))) == dumps_json(nest(rows_as_dicts(header, columns)))

    def test_keys_are_json_strings_not_template_text(self):
        header = ["100%s", 'say "Ψ"', "%d%%"]
        columns = random_columns(random.Random(7), len(header), 5)
        assert dumps_json({"rows": Table(header, columns)}) == dumps_json({"rows": rows_as_dicts(header, columns)})

    def test_no_rows_is_an_empty_list(self):
        assert dumps_json({"rows": Table(["g"], [[]])}) == dumps_json({"rows": []})


def broadcast_columns(n_rows: int, seed: int) -> tuple[list[str], list[np.ndarray]]:
    """Each edge cell as a broadcast (stride-0) column, as a sweep passes its constants,
    each followed by a varying column of random and edge cells."""
    varying = random_columns(random.Random(seed), len(EDGE_CELLS), n_rows)
    columns = []
    for constant, column in zip(EDGE_CELLS, varying):
        columns += [np.broadcast_to(constant, (n_rows,)), np.array(column)]
    return [f"c{k}" for k in range(len(columns))], columns


class TestTableBlocksAgainstRowOracle:
    """A table is rendered a block of rows at a time, its broadcast columns formatted once:
    the record and the CSV equal the row-at-a-time oracles on both sides of a block edge."""

    def check(self, tmp_path, header, columns):
        table = Table(header, columns)
        assert dumps_json({"rows": table}) == dumps_json({"rows": rows_as_dicts(header, columns)})
        write_sweep_csv(tmp_path / "sweep.csv", table)
        assert (tmp_path / "sweep.csv").read_text() == table_csv_oracle(header, columns)

    @pytest.mark.parametrize("n_rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_broadcast_edge_cells_beside_varying_columns(self, tmp_path, n_rows):
        header, columns = broadcast_columns(n_rows, seed=n_rows)
        assert [column.strides for column in columns[::2]] == [(0,)] * len(EDGE_CELLS)
        self.check(tmp_path, header, columns)

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_every_column_broadcast(self, tmp_path, n_rows):
        # A one-point sweep is all broadcast: np.broadcast_to gives its swept column stride 0 too.
        columns = [np.broadcast_to(np.linspace(0.5, 1.0, 1), (n_rows,)), np.broadcast_to(-0.0, (n_rows,))]
        self.check(tmp_path, ["g", "wv"], columns)

    def test_no_rows_with_a_broadcast_column(self, tmp_path):
        self.check(tmp_path, ["g", "wv"], [np.zeros(0), np.broadcast_to(math.nan, (0,))])


# Each sweep's nan cells, as (row, column): M = 0 and alpha = 0 infer no weak value.
SWEEP_NAN_CELLS = {"--M=0:1:3": [(0, "inferred_wv")], "--alpha=-3:3:11": [(5, "inferred_wv")],
                   f"--g=0:0.3:{2**14 + 3}": []}


@pytest.mark.parametrize(
    "flag, spec",
    [
        ("--scenario=neutron-absorber", "--M=0:1:3"),
        ("--scenario=neutron-magnetic", "--alpha=-3:3:11"),
        ("--scenario=qcc", f"--g=0:0.3:{2**14 + 3}"),  # the CSV spans two blocks
    ],
)
def test_sweep_csv_cells_are_the_record_cells(tmp_path, capsys, flag, spec):
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "record.json"
    assert main(["sweep", flag, spec, "--csv", str(csv_path), "--json", str(json_path)]) == 0
    capsys.readouterr()
    # Numbers are kept as their text, so cells compare digit for digit.
    results = json.loads(json_path.read_text(), parse_float=str, parse_int=str)["results"]
    with open(csv_path, newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == results["columns"]
    assert len(lines) == len(results["rows"]) == int(spec.rsplit(":", 1)[1])
    for line, row in zip(lines, results["rows"]):
        assert list(row) == header
        assert [None if cell in ("nan", "inf", "-inf") else cell for cell in line] == list(row.values())
    nan_cells = [(i, name) for i, line in enumerate(lines) for name, cell in zip(header, line) if cell == "nan"]
    assert nan_cells == SWEEP_NAN_CELLS[spec]


def complex_pointer():
    phi0 = make_gaussian(0.0, 1.0)
    return superpose([translate(phi0, 0.3, 0.6 + 0.8j), translate(phi0, -0.2, -0.5j)])


def complex_grid():
    pointer = complex_pointer()
    grid = to_grid(pointer, *support(pointer), 256)
    _, amps, _ = grid
    assert np.any(amps.imag != 0.0)
    return grid


class TestCsvAgainstRowOracle:
    def test_grid_with_complex_coefficients(self, tmp_path):
        grid = complex_grid()
        target = tmp_path / "grid.csv"
        write_grid_csv(grid, target)
        assert target.read_bytes() == grid_csv_oracle(grid).encode()

    def test_grid_density_column_is_the_density_the_norm_check_integrates(self, tmp_path):
        grid = xs, _, dens = complex_grid()
        target = tmp_path / "grid.csv"
        write_grid_csv(grid, target)
        column = np.array([float(line.split(",")[3]) for line in target.read_text().splitlines()[1:]])
        assert column.tobytes() == dens.tobytes()
        assert column.tobytes() == density(complex_pointer(), xs).tobytes()
        assert float(np.trapezoid(column, xs)) == float(np.trapezoid(dens, xs))

    def test_trials_longer_than_one_block(self, tmp_path):
        n = 2 * 2**14 + 123
        rng = np.random.default_rng(11)
        mask = rng.random(n) < 0.3
        mask[-1] = True  # the last, partial block ends on an accepted trial
        positions = rng.normal(0.0, 1e3, int(mask.sum()))
        trials = (positions, mask)
        target = tmp_path / "trials.csv"
        write_trials_csv(trials, target)
        assert target.read_bytes() == trials_csv_oracle(trials).encode()

    @pytest.mark.parametrize(
        "n",
        [1, BLOCK_ROWS // 2 - 1, BLOCK_ROWS // 2, BLOCK_ROWS // 2 + 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
         3 * BLOCK_ROWS + 5],
    )
    @pytest.mark.parametrize(
        "rate", [0.0, 0.1, 0.3, 0.99, 1.0],
        ids=["none accepted", "a tenth accepted", "some accepted", "nearly all accepted", "all accepted"],
    )
    def test_trials_at_block_edges(self, tmp_path, n, rate):
        # Positions from 1e-6 to 1e19 in size: fixed notation from 1e-4 to below 1e17, exponent notation past it.
        rng = np.random.default_rng(n)
        mask = rng.random(n) < rate
        k = int(mask.sum())
        trials = (rng.normal(0.0, 1.0, k) * 10.0 ** rng.uniform(-6, 19, k), mask)
        target = tmp_path / "trials.csv"
        write_trials_csv(trials, target)
        assert target.read_bytes() == trials_csv_oracle(trials).encode()

    @pytest.mark.parametrize("n", [100, 10**4 + 1, 10**5 + 1])
    def test_trial_index_digits(self, tmp_path, n):
        # Trial indices across each power of ten, with room for one more digit than they use.
        rng = np.random.default_rng(n)
        mask = rng.random(n) < 0.01
        trials = (rng.normal(0.0, 1.0, int(mask.sum())), mask)
        target = tmp_path / "trials.csv"
        write_trials_csv(trials, target)
        assert target.read_bytes() == trials_csv_oracle(trials).encode()

    def test_trials_with_extreme_positions(self, tmp_path):
        # Around the trials' block edges: both sides of 1e-4 and of 1e17, where %.17g changes notation,
        # the even integers past 2**53, and a tie at the 17th digit, which rounds to even.
        edge = [1e-4, math.nextafter(1e-4, 0.0), -1e17, math.nextafter(1e17, 0.0), 2.0**53 + 2, 0.5 + 2**-18]
        positions = np.array([-0.0, 5e-324, -1e-300, *edge, 1e308, -1e308, 0.0, 0.1])
        mask = np.zeros(2 * BLOCK_ROWS + 3, dtype=bool)
        around = list(range(BLOCK_ROWS - 2, BLOCK_ROWS + 4))
        mask[[0, 2, 3, *around, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2]] = True
        trials = (positions, mask)
        target = tmp_path / "trials.csv"
        write_trials_csv(trials, target)
        text = target.read_text()
        assert text == trials_csv_oracle(trials)
        assert "\n0,1,-0\n" in text and f"\n{2 * BLOCK_ROWS},1,-1e+308\n" in text
        assert f"\n{BLOCK_ROWS - 2},1,0.0001\n{BLOCK_ROWS - 1},1,9.9999999999999991e-05\n" in text
        assert f"\n{BLOCK_ROWS},1,-1e+17\n{BLOCK_ROWS + 1},1,99999999999999984\n" in text
        assert f"\n{BLOCK_ROWS + 3},1,0.50000381469726562\n" in text


def finite_bit_patterns(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` doubles with uniformly random bits, non-finite ones dropped."""
    x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


def decimal_ties(rng: np.random.Generator, per_exponent: int) -> np.ndarray:
    """Doubles whose exact decimal form has 18 significant digits, the last a 5: halfway between
    two 17-digit decimals. m / 2**(17 - E) with m odd, for each E = -4..14, has exactly that many."""
    ties = []
    for E in range(-4, 15):
        j = 17 - E
        low, high = math.ceil(10.0**E * 2**j), math.floor(10.0 ** (E + 1) * 2**j)
        m = rng.integers(low // 2, high // 2, per_exponent) * 2 + 1
        ties.append(m / 2.0**j * rng.choice([-1.0, 1.0], per_exponent))
    return np.concatenate(ties)


class TestFloatTexts:
    """The trials CSV's number kernel (``_float_texts``) against format_float, value by value."""

    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
        1.7976931348623157e308, -1.7976931348623157e308, 2.0**53, 2.0**53 + 2, 9999999999999999.0,
        99999999999999999.0, 1e-4, math.nextafter(1e-4, 0.0), 0.5 + 2**-18, 0.5 + 3 * 2**-18, 0.1, 1.0, 123.0,
        *(v for k in range(-30, 30) for v in (10.0**k, math.nextafter(10.0**k, 0.0), math.nextafter(10.0**k, math.inf))),
        *(v for k in range(1, 60) for v in (0.5 + 2.0**-k, 1.0 + 2.0**-k, 2.0**k + 0.5, -(1024.0 + 2.0**-k))),
    ]

    @staticmethod
    def assert_texts(values: np.ndarray) -> None:
        text = _float_texts(values)
        got = np.column_stack([text, np.full(len(text), ord("\n"), np.uint8)]).tobytes().replace(b"\0", b"")
        wrong = [(v, g) for v, g in zip(values.tolist(), got.decode().split("\n")) if g != format_float(v)]
        assert not wrong, f"{len(wrong)} of {len(values)} differ, first {wrong[:5]}"

    def test_edge_values(self):
        self.assert_texts(np.array(self.EDGES))

    def test_seeded_values(self):
        rng = np.random.default_rng(30)
        n = 10**6
        log_uniform = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 20, n)
        self.assert_texts(np.concatenate([log_uniform, finite_bit_patterns(rng, 10**5), decimal_ties(rng, 10**4)]))

    def test_ties_round_to_even(self):
        # %.17g rounds a tie half to even, and so does the kernel.
        ties = decimal_ties(np.random.default_rng(31), 100).tolist()
        assert all(len(Decimal(t).as_tuple().digits) == 18 and Decimal(t).as_tuple().digits[-1] == 5 for t in ties)
        half_even = Context(prec=17, rounding=ROUND_HALF_EVEN)
        assert all(Decimal(format_float(t)) == half_even.plus(Decimal(t)) for t in ties)
        self.assert_texts(np.array(ties))
