import pytest

from kerlap.bench import RECORD_HEADER, load_records_csv
from kerlap.cli import main
from kerlap.errors import EXIT_INVALID_ARGUMENT, InvalidArgumentError
from kerlap.svgplot import render_svg


def write_records(path, rows):
    lines = [",".join(RECORD_HEADER)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def plot_svg(records, out):
    """``kerlap plot --records records --out out``, which must succeed."""
    assert main(["plot", "--records", str(records), "--out", str(out)]) == 0


class TestPlotSvg:
    def test_empty_records_yields_axes_only(self, tmp_path):
        rec = tmp_path / "empty.csv"
        write_records(rec, [])
        out = tmp_path / "plot.svg"
        plot_svg(rec, out)
        svg = out.read_text()
        assert svg.startswith("<svg ") or svg.startswith("<svg\n")
        assert "<polyline" not in svg
        assert svg.count("<line") >= 2  # the two axes
        assert svg.rstrip().endswith("</svg>")

    def test_single_method_two_points(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_records(rec, [
            ["krr", 10, 5, 0, 0.4, 0.01, 0.001, 7],
            ["krr", 100, 50, 0, 0.2, 0.02, 0.001, 8],
        ])
        out = tmp_path / "plot.svg"
        plot_svg(rec, out)
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        poly = svg.split("<polyline")[1].split("/>")[0]
        points = poly.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_one_band_and_line_per_method(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_records(rec, [
            ["krr", 10, 5, 0, 0.4, 0.01, 0.001, 1],
            ["krr", 10, 5, 1, 0.5, 0.01, 0.001, 2],
            ["krr", 100, 50, 0, 0.2, 0.02, 0.001, 3],
            ["krr", 100, 50, 1, 0.3, 0.02, 0.001, 4],
            ["graph", 10, 5, 0, 0.45, 0.01, 0.0, 5],
            ["graph", 100, 50, 0, 0.35, 0.01, 0.0, 6],
        ])
        out = tmp_path / "plot.svg"
        plot_svg(rec, out)
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") >= 1  # band for the method with spread
        assert "krr" in svg and "graph" in svg

    def test_byte_deterministic(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_records(rec, [
            ["krr", 10, 5, 0, 0.123456789, 0.01, 0.001, 1],
            ["krr", 30, 15, 0, 0.3333333333, 0.02, 0.001, 2],
        ])
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_svg(rec, out1)
        plot_svg(rec, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_rows_excluded(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_records(rec, [
            ["krr", 10, 5, 0, 0.4, 0.01, 0.001, 1],
            ["krr", 10, 5, 1, float("nan"), 0.01, 0.0, 2],
            ["krr", 100, 50, 0, 0.2, 0.02, 0.001, 3],
        ])
        out = tmp_path / "plot.svg"
        plot_svg(rec, out)
        assert out.read_text().count("<polyline") == 1

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        rec = tmp_path / "bad.csv"
        rec.write_text(
            ",".join(RECORD_HEADER) + "\nkrr,10,5,0,0.4,0.01,0.001,1\nkrr,zzz\n"
        )
        with pytest.raises(InvalidArgumentError, match=":3"):
            load_records_csv(rec)
        out = tmp_path / "plot.svg"
        assert main(["plot", "--records", str(rec), "--out", str(out)]) == EXIT_INVALID_ARGUMENT
        assert ":3" in capsys.readouterr().err and not out.exists()

    def test_render_handles_single_n(self):
        from kerlap.bench import BenchRecord

        svg = render_svg([BenchRecord("krr", 10, 5, 0, 0.4, 0.01, 0.001, 7)])
        assert "<polyline" in svg
