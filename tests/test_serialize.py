import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conelab import fd, serialize


def small_field(h=0.25):
    g = fd.build_grid(fd.Domain.box([0, 0], [1, 1]), h)
    vals = np.arange(np.prod(g.shape), dtype=float).reshape(g.shape)
    return g, fd.ScalarField(g, vals)


class TestFieldCsv:
    def test_header_and_rows(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "f.csv"
        serialize.field_to_csv(f, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + np.count_nonzero(g.active)

    def test_values_roundtrip(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "f.csv"
        serialize.field_to_csv(f, p)
        data = np.loadtxt(p, delimiter=",", skiprows=1)
        idx = np.argwhere(g.active)
        assert np.allclose(data[:, -1], f.values[tuple(idx.T)])
        assert np.allclose(data[:, 0], g.axes[0][idx[:, 0]])


def _savetxt_csv(path, grid, mask, columns):
    """Oracle of the node CSV bytes: np.savetxt of the stacked columns."""
    idx = np.argwhere(mask)
    names = [f"x{d + 1}" for d in range(grid.dim)] + list(columns)
    data = [ax[i] for ax, i in zip(grid.axes, idx.T)]
    data += [arr[mask] for arr in columns.values()]
    np.savetxt(path, np.column_stack(data), delimiter=",",
               header=",".join(names), comments="", fmt="%.17g")


class TestNodeCsvBytes:
    """The node CSV writer gives np.savetxt's bytes, in one chunk of rows
    and in many."""

    @staticmethod
    def _extreme_field(domain, h):
        g = fd.build_grid(domain, h)
        # -0.0, subnormals, +-1e308, integers, then values of 17 digits
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 3.0, -7.0,
                   2.0 ** 53, 123456789.0, 1 / 3, -np.pi * 1e-5]
        vals = np.random.default_rng(0).standard_normal(g.shape)
        active = np.flatnonzero(g.active)
        vals.flat[active[:len(special)]] = special
        vals.flat[active[-len(special):]] = special
        return g, fd.ScalarField(g, vals)

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("domain, h", [
        (fd.Domain.box([-1.5, 0], [0.5, 1]), 0.125),
        (fd.Domain.box([0, 0, 0], [1, 1, 1]), 0.25),
        (fd.Domain.ball([0.1, -0.3], 0.9), 0.1),
    ])
    def test_field_bytes_match_savetxt(self, tmp_path, monkeypatch, rows,
                                       domain, h):
        if rows:
            monkeypatch.setattr(serialize, "_CSV_ROWS", rows)
        g, f = self._extreme_field(domain, h)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        serialize.field_to_csv(f, got)
        _savetxt_csv(ref, g, g.active, {"value": f.values})
        assert got.read_bytes() == ref.read_bytes()
        if rows:
            assert np.count_nonzero(g.active) % rows

    @pytest.mark.parametrize("rows", [None, 5])
    def test_mask_bytes_match_savetxt(self, tmp_path, monkeypatch, rows):
        if rows:
            monkeypatch.setattr(serialize, "_CSV_ROWS", rows)
        g = fd.build_grid(fd.Domain.ball([0, 0, 0], 1.0), 0.25)
        for mask in (g.interior, g.boundary, np.zeros(g.shape, bool)):
            got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
            serialize.mask_to_csv(g, mask, got)
            _savetxt_csv(ref, g, mask, {})
            assert got.read_bytes() == ref.read_bytes()


class TestFieldBinary:
    def test_magic_and_roundtrip(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "f.bin"
        serialize.field_to_binary(f, p)
        raw = p.read_bytes()
        assert raw[:5] == b"CNLB1"
        back = serialize.field_values_from_binary(p)
        assert back.shape == g.shape
        assert np.array_equal(back, f.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            serialize.field_values_from_binary(p)

    def test_truncated(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "f.bin"
        serialize.field_to_binary(f, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            serialize.field_values_from_binary(p)

    def test_short_header(self, tmp_path):
        # the magic and one byte of the rank: ValueError naming the file,
        # not struct.error
        p = tmp_path / "f.bin"
        for head in (serialize.MAGIC + b"\x01",
                     serialize.MAGIC + (2).to_bytes(4, "little") + b"\x05"):
            p.write_bytes(head)
            with pytest.raises(ValueError, match=re.escape(
                    f"{p}: truncated header")):
                serialize.field_values_from_binary(p)

    def test_little_endian_doubles(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "f.bin"
        serialize.field_to_binary(f, p)
        raw = p.read_bytes()
        rank = int.from_bytes(raw[5:9], "little")
        off = 9 + 4 * rank
        first = np.frombuffer(raw[off:off + 8], dtype="<f8")[0]
        assert first == f.values.flat[0]


# plot values: any float (nan, +-inf, +-0.0, subnormals, +-1e308), the
# extremes by name, integers, bools and None (which prints as nan)
PLOT_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1e-308,
                     float("inf"), float("-inf"), float("nan")]),
    st.integers(-2 ** 62, 2 ** 62), st.booleans(), st.none())
PLOT_NAME_CHARS = "abcxyz_019 -"
# multi-line comments included
PLOT_COMMENT_CHARS = "abc xyz#,.:-=*01\n\t"


class TestPlotCsv:
    def test_comment_headers(self, tmp_path):
        p = tmp_path / "plot.csv"
        serialize.write_plot_csv(p, "demo plot", {"x": [1, 2], "y": [3, 4]})
        lines = p.read_text().splitlines()
        assert lines[0].startswith("#") and "demo plot" in lines[0]
        assert lines[1] == "# columns: x,y"
        assert lines[2] == "1,3"

    def test_unequal_columns_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        with pytest.raises(ValueError):
            serialize.write_plot_csv(p, "c", {"x": [1], "y": [1, 2]})
        assert not p.exists()

    def test_empty_columns_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        with pytest.raises(ValueError):
            serialize.write_plot_csv(p, "c", {})
        assert not p.exists()

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_match_savetxt(self, tmp_path, data):
        ncols = data.draw(st.integers(1, 5), label="columns")
        nrows = data.draw(st.integers(0, 40), label="rows")
        names = data.draw(st.lists(st.text(PLOT_NAME_CHARS, min_size=1,
                                           max_size=6),
                                   min_size=ncols, max_size=ncols,
                                   unique=True), label="names")
        columns = {name: data.draw(st.lists(PLOT_VALUES, min_size=nrows,
                                            max_size=nrows), label=name)
                   for name in names}
        comment = data.draw(st.text(PLOT_COMMENT_CHARS, max_size=30),
                            label="comment")
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        serialize.write_plot_csv(got, comment, columns)
        np.savetxt(ref, np.column_stack([np.asarray(col, dtype=float)
                                         for col in columns.values()]),
                   delimiter=",", fmt="%.17g", comments="# ",
                   header=f"{comment}\ncolumns: " + ",".join(columns))
        assert got.read_bytes() == ref.read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cols = {"x": np.linspace(0, 1, 5), "y": np.sqrt(np.arange(5))}
        serialize.write_plot_csv(a, "same", cols)
        serialize.write_plot_csv(b, "same", cols)
        assert a.read_bytes() == b.read_bytes()


class TestMaskCsv:
    def test_node_list(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "mask.csv"
        serialize.mask_to_csv(g, g.interior, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 1 + np.count_nonzero(g.interior)

    def test_empty_mask(self, tmp_path):
        g, f = small_field()
        p = tmp_path / "mask.csv"
        serialize.mask_to_csv(g, np.zeros(g.shape, dtype=bool), p)
        assert p.read_text().strip() == "x1,x2"


class TestJson:
    def test_malformed_config_diagnostics(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"a": 1,\n  "b": }\n')
        with pytest.raises(ValueError, match="line 2"):
            serialize.load_json(str(p))

    def test_report_schema(self, tmp_path):
        from conelab import lab
        rep = lab.ExperimentReport("demo", {"n": 3})
        rep.runs.append({"h": 0.1, "margin": 1.0})
        rep.slopes.append(lab.SlopeFit("s", 2.0, 0.01, 2.0))
        rep.verdicts.append(lab.Verdict("v", True, 2.0, 2.0, 0.05))
        # a verdict computed with numpy
        rep.verdicts.append(lab.Verdict("np", np.float64(1.2) <= 1.5,
                                        np.float64(1.2), 1.0, 0.5))
        p = tmp_path / "report.json"
        serialize.report_to_json(rep, p)
        d = json.loads(p.read_text())
        assert set(d) == {"name", "config", "runs", "slopes", "verdicts"}
        assert d["runs"][0]["margin"] == 1.0
        assert d["verdicts"][0]["passed"] is True
        assert d["verdicts"][1]["passed"] is True
