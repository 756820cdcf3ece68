from xml.dom import minidom

import pytest

from servelab.errors import RangeError
from servelab.svg import polyline_chart


def render(series, **kw):
    doc = polyline_chart(series, **kw)
    return doc, minidom.parseString(doc)


class TestChart:
    def test_valid_xml_with_one_polyline_per_series(self):
        series = [
            ("existing", [(0.5, 0.5), (0.6, 0.74), (0.7, 0.9)]),
            ("proposed", [(0.5, 0.45), (0.6, 0.68), (0.7, 0.85)]),
        ]
        doc, dom = render(series, title="win chance", x_label="p", y_label="P")
        assert dom.documentElement.tagName == "svg"
        assert len(dom.getElementsByTagName("polyline")) == 2
        assert "win chance" in doc

    def test_axes_and_ticks_present(self):
        _, dom = render([("s", [(0.0, 0.0), (1.0, 1.0)])])
        # 2 axes + 5 ticks per axis + 1 legend swatch for the series
        assert len(dom.getElementsByTagName("line")) == 13

    def test_legend_carries_series_labels(self):
        doc, _ = render([("alpha", [(0, 0), (1, 1)]), ("beta", [(0, 1), (1, 0)])])
        assert "alpha" in doc and "beta" in doc

    def test_labels_are_escaped(self):
        doc, dom = render(
            [("a<b&c", [(0, 0), (1, 1)])], title="x < y", x_label="q&r"
        )
        assert "a&lt;b&amp;c" in doc
        assert "x &lt; y" in doc
        dom.toxml()  # still well-formed

    def test_single_point_series_renders(self):
        doc, dom = render([("dot", [(0.5, 0.5)])])
        assert len(dom.getElementsByTagName("polyline")) == 1

    def test_size_is_fixed(self):
        _, dom = render([("s", [(0, 0), (1, 1)])])
        svg = dom.documentElement
        assert (svg.getAttribute("width"), svg.getAttribute("height")) == ("640", "420")
        assert svg.getAttribute("viewBox") == "0 0 640 420"

    def test_empty_input_rejected(self):
        with pytest.raises(RangeError, match="nothing to plot"):
            polyline_chart([])
        with pytest.raises(RangeError, match="nothing to plot"):
            polyline_chart([("empty", [])])
