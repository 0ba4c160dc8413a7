"""SVG rendering of barcodes, lifespan heatmaps, and skeletons."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from topo_recon.landmarks import LandmarkSet, save_landmarks
from topo_recon.mscan import save_lifespan_csv
from topo_recon.render import render_barcode, render_heatmap, render_skeleton
from topo_recon.signal import SeriesFormatError

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def tags(root, name):
    return root.findall(f".//{SVG_NS}{name}")


class TestRenderBarcode:
    def write_barcode(self, path, rows):
        with open(path, "w") as fh:
            fh.write("k,birth,death\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    def test_bar_and_axis_counts(self, tmp_path):
        path = tmp_path / "b.csv"
        self.write_barcode(path, [(0, 0.0, 1.0), (0, 0.0, "inf"), (1, 0.5, 2.0)])
        svg = render_barcode(path)
        root = parse(svg)
        # 3 bars + 1 axis + 5 ticks
        assert len(tags(root, "line")) == 9
        # one arrowhead for the open bar
        assert len(tags(root, "path")) == 1
        # k-group labels + 5 tick labels
        texts = [t.text for t in tags(root, "text")]
        assert "k=0" in texts and "k=1" in texts

    def test_empty_barcode_renders_axis_only(self, tmp_path):
        path = tmp_path / "b.csv"
        self.write_barcode(path, [])
        root = parse(render_barcode(path))
        assert len(tags(root, "line")) == 6  # axis + 5 ticks
        assert len(tags(root, "path")) == 0

    def test_deterministic(self, tmp_path):
        path = tmp_path / "b.csv"
        self.write_barcode(path, [(0, 0.0, 2.5), (1, 1.0, "inf")])
        assert render_barcode(path) == render_barcode(path)

    def test_is_valid_xml_with_white_background(self, tmp_path):
        path = tmp_path / "b.csv"
        self.write_barcode(path, [(0, 0.0, 1.0)])
        root = parse(render_barcode(path))
        assert root.tag == f"{SVG_NS}svg"
        background = tags(root, "rect")[0]
        assert background.get("fill") == "white"

    def test_degrees_colored_differently(self, tmp_path):
        path = tmp_path / "b.csv"
        self.write_barcode(path, [(0, 0.0, 1.0), (1, 0.0, 1.0)])
        root = parse(render_barcode(path))
        bars = [ln for ln in tags(root, "line") if ln.get("stroke-width") == "3"]
        assert bars[0].get("stroke") != bars[1].get("stroke")


class TestRenderHeatmap:
    def test_zero_cells_stay_white(self, tmp_path):
        path = tmp_path / "m.csv"
        save_lifespan_csv(np.array([[0, 2], [2, 0]]), path)
        root = parse(render_heatmap(path))
        rects = tags(root, "rect")
        # background + 2 colored cells + frame
        assert len(rects) == 4
        frame = rects[-1]
        assert frame.get("fill") == "none"
        assert frame.get("stroke") == "black"

    def test_all_zero_matrix_renders_frame_only(self, tmp_path):
        path = tmp_path / "m.csv"
        save_lifespan_csv(np.zeros((3, 3), dtype=int), path)
        root = parse(render_heatmap(path))
        assert len(tags(root, "rect")) == 2  # background + frame

    def test_palette_is_discrete_by_value(self, tmp_path):
        path = tmp_path / "m.csv"
        save_lifespan_csv(np.array([[1, 2], [3, 8]]), path)
        root = parse(render_heatmap(path))
        colors = {r.get("fill") for r in tags(root, "rect")} - {"white", "none"}
        assert len(colors) == 4

    def test_large_values_clamp_to_top_color(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_lifespan_csv(np.array([[8]]), a)
        save_lifespan_csv(np.array([[40]]), b)
        color = lambda p: [r.get("fill") for r in tags(parse(render_heatmap(p)), "rect")][1]
        assert color(a) == color(b)

    @pytest.mark.parametrize("text, line", [("0,1\n1,0\n2,2\n", 3), ("0,1,2\n1,0,2\n", 1)])
    def test_non_square_matrix_is_located(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(SeriesFormatError, match="not square") as exc:
            render_heatmap(path)
        assert (exc.value.path, exc.value.line_no) == (str(path), line)

    def test_cell_size_respects_limit(self, tmp_path):
        path = tmp_path / "m.csv"
        save_lifespan_csv(np.ones((10, 10), dtype=int), path)
        root = parse(render_heatmap(path, cell_limit=100))
        cells = [r for r in tags(root, "rect") if r.get("fill") not in ("white", "none")]
        assert all(r.get("width") == "10" for r in cells)


class TestRenderSkeleton:
    def write_edges(self, path, edges):
        with open(path, "w") as fh:
            fh.write("i,j,birth\n")
            for i, j, b in edges:
                fh.write(f"{i},{j},{b}\n")

    def landmarks_file(self, tmp_path, coords):
        coords = np.asarray(coords, dtype=float)
        lms = LandmarkSet(np.arange(len(coords)), coords, np.arange(len(coords)))
        path = tmp_path / "lm.csv"
        save_landmarks(lms, path)
        return path

    def test_counts_match_inputs(self, tmp_path):
        lm_path = self.landmarks_file(tmp_path, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        e_path = tmp_path / "e.csv"
        self.write_edges(e_path, [(0, 1, 0.5), (1, 2, 0.7)])
        root = parse(render_skeleton(e_path, lm_path))
        assert len(tags(root, "line")) == 2
        assert len(tags(root, "circle")) == 3

    def test_header_validated(self, tmp_path):
        lm_path = self.landmarks_file(tmp_path, [[0.0, 0.0]])
        e_path = tmp_path / "e.csv"
        e_path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            render_skeleton(e_path, lm_path)

    def test_one_dimensional_landmarks_render_on_a_line(self, tmp_path):
        lm_path = self.landmarks_file(tmp_path, [[0.0], [1.0], [2.0]])
        e_path = tmp_path / "e.csv"
        self.write_edges(e_path, [(0, 1, 0.1)])
        root = parse(render_skeleton(e_path, lm_path))
        ys = {c.get("cy") for c in tags(root, "circle")}
        assert len(ys) == 1  # all on the padded midline

    def test_view_rotation_changes_projection(self, tmp_path):
        rng = np.random.default_rng(0)
        lm_path = self.landmarks_file(tmp_path, rng.standard_normal((6, 3)))
        e_path = tmp_path / "e.csv"
        self.write_edges(e_path, [(0, 1, 0.2)])
        flat = render_skeleton(e_path, lm_path)
        rotated = render_skeleton(e_path, lm_path, view=(30.0, 60.0))
        assert flat != rotated
        assert render_skeleton(e_path, lm_path, view=(0.0, 0.0)) == flat

    def test_extra_dimensions_are_dropped(self, tmp_path):
        rng = np.random.default_rng(1)
        coords5 = rng.standard_normal((5, 5))
        lm5 = self.landmarks_file(tmp_path, coords5)
        e_path = tmp_path / "e.csv"
        self.write_edges(e_path, [])
        svg5 = render_skeleton(e_path, lm5)
        lm3 = tmp_path / "lm3.csv"
        lms3 = LandmarkSet(np.arange(5), coords5[:, :3], np.arange(5))
        save_landmarks(lms3, lm3)
        assert svg5 == render_skeleton(e_path, lm3)

    def test_deterministic(self, tmp_path):
        lm_path = self.landmarks_file(tmp_path, [[0.0, 0.0], [2.0, 1.0]])
        e_path = tmp_path / "e.csv"
        self.write_edges(e_path, [(0, 1, 1.0)])
        assert render_skeleton(e_path, lm_path) == render_skeleton(e_path, lm_path)
