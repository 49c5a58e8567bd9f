"""Serialization: the JSON record text and the CSV tables, byte for byte."""

import math

import numpy as np
import pytest

from qccsim.cli import main
from qccsim.errors import ValidationError
from qccsim.montecarlo import TrialBatch
from qccsim.pointer import density, make_gaussian, superpose, support, to_grid, translate
from qccsim.serialize import dumps_json, write_grid_csv, write_trials_csv

from oracles import grid_csv_oracle, trials_csv_oracle

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


def complex_pointer():
    phi0 = make_gaussian(0.0, 1.0)
    return superpose([translate(phi0, 0.3, 0.6 + 0.8j), translate(phi0, -0.2, -0.5j)])


def complex_grid():
    pointer = complex_pointer()
    grid = to_grid(pointer, *support(pointer), 256)
    assert np.any(grid.amps.imag != 0.0)
    return grid


class TestCsvAgainstRowOracle:
    def test_grid_with_complex_coefficients(self, tmp_path):
        grid = complex_grid()
        target = tmp_path / "grid.csv"
        write_grid_csv(grid, target)
        assert target.read_bytes() == grid_csv_oracle(grid).encode()

    def test_grid_density_column_is_the_density_the_norm_check_integrates(self, tmp_path):
        grid = complex_grid()
        target = tmp_path / "grid.csv"
        write_grid_csv(grid, target)
        column = np.array([float(line.split(",")[3]) for line in target.read_text().splitlines()[1:]])
        assert column.tobytes() == grid.density.tobytes()
        assert column.tobytes() == density(complex_pointer(), grid.xs).tobytes()
        assert float(np.trapezoid(column, grid.xs)) == grid.trapezoid_norm_sq

    def test_trials_longer_than_one_block(self, tmp_path):
        n = 2 * 2**14 + 123
        rng = np.random.default_rng(11)
        mask = rng.random(n) < 0.3
        mask[-1] = True  # the last, partial block ends on an accepted trial
        positions = rng.normal(0.0, 1e3, int(mask.sum()))
        batch = TrialBatch(positions, mask)
        target = tmp_path / "trials.csv"
        write_trials_csv(batch, target)
        assert target.read_bytes() == trials_csv_oracle(batch).encode()
