"""The README's library example runs as written."""

import pathlib
import re

import numpy as np

from proxdeconv import Image

from oracles import scene64

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {"my_array": scene64()[::4, ::4],
                 "psf": Image.from_2d(np.full((3, 3), 1.0 / 9.0))}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["restored"].shape == (16, 16)
    assert np.all(namespace["restored"] >= 0.0)
