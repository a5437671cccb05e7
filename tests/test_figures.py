import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from evidem.figures import Series, _ticks, line_chart_svg

SRC = Path(__file__).resolve().parents[1] / "src"


def test_basic_chart_structure():
    svg = line_chart_svg(
        [0.0, 0.1, 0.2],
        [Series("a", [0.1, 0.2, 0.3], [0.05, 0.05, 0.05]), Series("b", [0.3, 0.2, 0.1])],
        title="demo",
        xlabel="x",
        ylabel="y",
    )
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert svg.count("<polygon") == 1  # only the series with sd gets a band
    assert "demo" in svg and ">x<" in svg and ">y<" in svg


def test_nan_points_are_dropped():
    svg = line_chart_svg([1.0, 2.0, 3.0], [Series("a", [0.5, math.nan, 0.7])])
    assert "nan" not in svg
    assert svg.count("<circle") == 2


def test_all_nan_series_skipped():
    svg = line_chart_svg([1.0, 2.0], [Series("a", [math.nan, math.nan])])
    assert "<polyline" not in svg


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        line_chart_svg([1.0, 2.0], [Series("a", [0.5])])


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        line_chart_svg([], [])


def test_ticks_end_on_an_axis_below_float_spacing():
    # a rho grid of 0.1 and the next float up: the tick step, 5e-18, is below the spacing of 0.1,
    # so 0.1 + step == 0.1; a fresh interpreter with a time and a memory bound cuts a loop that never ends
    code = (
        "from evidem.figures import Series, _ticks, line_chart_svg\n"
        "print(_ticks(0.1, 0.10000000000000002))\n"
        "svg = line_chart_svg([0.1, 0.10000000000000002], [Series('a', [1.0, 2.0], [0.1, 0.1])])\n"
        "print(svg.count('text-anchor=\"middle\">0.1</text>'))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[0.1]", "1"]


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-1e308, 1e308), (0.0, 1e-20)],
                         ids=["step-underflows", "span-overflows", "ticks-below-1e-12"])
def test_extreme_axes_are_drawn(lo, hi):
    ticks = _ticks(lo, hi)
    assert len(ticks) >= 2 and ticks == sorted(set(ticks))
    assert all(lo <= t <= hi for t in ticks)
    for x, y in [([lo, hi], [1.0, 2.0]), ([0.0, 1.0], [lo, hi])]:
        svg = line_chart_svg(x, [Series("a", y, [0.0, 0.0])])
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == 2
        # a mark per tick of both axes, whose y axis starts at 0 or below, and the frame
        assert svg.count('stroke="black"/>') == len(_ticks(*x)) + len(_ticks(min(y[0], 0.0), y[1])) + 1


@pytest.mark.parametrize("x", [1e300, -1e300, 0.0])
def test_one_point_axis_is_widened(x):
    # a gap of 1 is below the float spacing of 1e300, so the axis grows with |x| instead
    ticks = _ticks(x, x)
    assert len(ticks) >= 2 and ticks == sorted(set(ticks)) and ticks[0] == x
    for xs, y in [([x], [1.0]), ([1.0], [x])]:
        svg = line_chart_svg(xs, [Series("a", y)])
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == 1


def test_axis_ending_at_the_largest_float_is_drawn():
    # the tick past the last one overflows to inf
    top = sys.float_info.max
    for x in ([top], [0.9 * top, top]):
        assert all(math.isfinite(t) for t in _ticks(min(x), max(x)))
        svg = line_chart_svg(x, [Series("a", [1.0] * len(x))])
        assert "inf" not in svg and svg.count("<circle") == len(x)


def test_axis_starting_at_the_most_negative_float_is_drawn():
    # the step's multiple below the one point overflows to -inf
    bottom = -sys.float_info.max
    ticks = _ticks(bottom, bottom)
    assert len(ticks) >= 2 and ticks == sorted(set(ticks)) and all(math.isfinite(t) for t in ticks)
    svg = line_chart_svg([bottom], [Series("a", [1.0])])
    assert "inf" not in svg and svg.count("<circle") == 1
    # a mark per tick of both axes, and the frame
    assert svg.count('stroke="black"/>') == len(ticks) + len(_ticks(0.0, 1.0)) + 1
