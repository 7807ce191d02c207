import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import gridtrace
import gridtrace.cli as cli
from gridtrace import (
    RingTraversalError,
    TimingRecord,
    TraceError,
    bernoulli,
    parse_mask,
    write_mask,
)
from gridtrace.rings import TopologyError

SINGLE_PIXEL_PBM = b"P1\n1 1\n1\n"


def write_mask_file(tmp_path, data, name="mask.pbm"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


class TestGen:
    def test_p_zero_writes_all_unmarked_pbm(self, tmp_path):
        out = tmp_path / "zero.pbm"
        rc = cli.main(["gen", "--width", "6", "--height", "4", "--p", "0",
                       "--seed", "1", "--output", str(out)])
        assert rc == 0
        raster = parse_mask(out.read_bytes(), "pbm-binary")
        assert (raster.width, raster.height, raster.marked_count()) == (6, 4, 0)

    def test_p_one_marks_everything(self, tmp_path):
        out = tmp_path / "one.pbm"
        assert cli.main(["gen", "--width", "5", "--height", "3", "--p", "1",
                         "--seed", "1", "--output", str(out)]) == 0
        assert parse_mask(out.read_bytes(), "pbm-binary").marked_count() == 15

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        args = ["gen", "--width", "32", "--height", "32", "--p", "0.5", "--seed", "9"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_payload(self, capsysbinary):
        assert cli.main(["gen", "--width", "2", "--height", "1", "--p", "1",
                         "--seed", "0", "--output", "-"]) == 0
        assert capsysbinary.readouterr().out.startswith(b"P4\n2 1\n")

    def test_invalid_probability_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--width", "2", "--height", "2", "--p", "1.5",
                      "--seed", "0", "--output", "-"])
        assert exc.value.code == 2


class TestDelineate:
    def test_single_pixel_wkt(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        rc = cli.main(["delineate", "--input", path, "--format", "wkt"])
        assert rc == 0
        assert capsys.readouterr().out == "POLYGON ((0 0, 0 1, 1 1, 1 0, 0 0))\n"

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = cli.main(["delineate", "--input", str(tmp_path / "nope.pbm")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_mask_exits_one(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, b"P1\n2 2\n1")
        assert cli.main(["delineate", "--input", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_mask_empty_feature_collection(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, b"P1\n3 3\n" + b"0" * 9)
        rc = cli.main(["delineate", "--input", path])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "type": "FeatureCollection",
            "features": [],
        }

    def test_geojson_polygon_default(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["features"][0]["geometry"]["type"] == "Polygon"

    def test_rings_geojson_mode(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", path, "--format", "rings-geojson"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["features"][0]["geometry"]["type"] == "LineString"

    def test_world_file_transforms_coordinates(self, tmp_path, capsys):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        world = tmp_path / "mask.wld"
        world.write_text("1\n0\n0\n-1\n100.5\n49.5\n")
        assert cli.main(["delineate", "--input", mask, "--world", str(world),
                         "--format", "rings-geojson"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["features"][0]["geometry"]["coordinates"] == [
            [100.0, 50.0], [100.0, 49.0], [101.0, 49.0], [101.0, 50.0], [100.0, 50.0],
        ]

    def test_bad_world_file_exits_one(self, tmp_path, capsys):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        world = tmp_path / "mask.wld"
        world.write_text("1\n0\n0\n")
        assert cli.main(["delineate", "--input", mask, "--world", str(world)]) == 1

    def test_world_file_that_is_not_utf8_is_named_with_its_offset(self, tmp_path, capsys):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        world = tmp_path / "mask.wld"
        world.write_bytes(b"1\n0\n\xff\n-1\n0.5\n0.5\n")
        assert cli.main(["delineate", "--input", mask, "--world", str(world)]) == 1
        assert capsys.readouterr() == (
            "",
            f"gridtrace: error: world file {str(world)!r} is not UTF-8 text:"
            " byte 0xff at offset 4\n",
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_world_file_exits_one(self, tmp_path, capsys, value):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        world = tmp_path / "mask.wld"
        world.write_text(f"1\n0\n0\n-1\n{value}\n49.5\n")
        assert cli.main(["delineate", "--input", mask, "--world", str(world)]) == 1
        err = capsys.readouterr().err
        assert err == f"gridtrace: error: line 5 is not a finite number: '{value}'\n"

    # Rank 1 although a*e - b*d overflows to NaN in floats, and invertible
    # although it underflows to 0.
    @pytest.mark.parametrize(
        "terms,code",
        [("1e200 1e200 1e200 1e200 0 0", 1), ("1e-200 0 0 1e-200 0 0", 0)],
        ids=["overflow", "underflow"],
    )
    def test_degeneracy_is_decided_exactly(self, tmp_path, capsys, terms, code):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        world = tmp_path / "mask.wld"
        world.write_text(terms.replace(" ", "\n") + "\n")
        assert cli.main(["delineate", "--input", mask, "--world", str(world),
                         "--format", "wkt"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err.startswith("gridtrace: error: degenerate transform (a*e - b*d = 0): ")
        else:
            assert out.startswith("POLYGON ((") and err == ""

    def test_huge_p1_header_exits_one_without_traceback(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, b"P1\n100000 100000\n10\n")
        assert cli.main(["delineate", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gridtrace: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("format", ["geojson", "rings-geojson"])
    def test_empty_mask_with_huge_width_exits_zero(self, tmp_path, capsys, format):
        # A 22-byte header for 10**15 x 0 pixels; a corner grid for it would
        # take petabytes.
        path = write_mask_file(tmp_path, b"P4\n1000000000000000 0\n")
        assert cli.main(["delineate", "--input", path, "--format", format]) == 0
        out, err = capsys.readouterr()
        assert out == '{"type": "FeatureCollection", "features": []}\n'
        assert err == ""

    def test_dimension_beyond_any_array_exits_one(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, b"P4\n100000000000000000000000 0\n")
        assert cli.main(["delineate", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err == (
            "gridtrace: error: dimension 100000000000000000000000 "
            "exceeds the largest array dimension\n"
        )

    def test_output_file(self, tmp_path):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        out = tmp_path / "out.json"
        assert cli.main(["delineate", "--input", mask, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["type"] == "FeatureCollection"

    def test_output_over_a_longer_file_replaces_all_of_it(self, tmp_path, capsys):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        out = tmp_path / "out.wkt"
        out.write_text("x" * 1000)
        out.chmod(0o640)
        assert cli.main(["delineate", "--input", mask, "--format", "wkt",
                         "--output", str(out)]) == 0
        assert out.read_text() == "POLYGON ((0 0, 0 1, 1 1, 1 0, 0 0))\n"
        assert out.stat().st_mode & 0o777 == 0o640

    def test_output_to_a_device_that_cannot_be_truncated(self, tmp_path):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", mask, "--output", "/dev/null"]) == 0

    def test_output_to_a_directory_exits_one(self, tmp_path, capsys):
        mask = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", mask, "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("gridtrace: error: [Errno 21] Is a directory")

    def test_crs_passthrough(self, tmp_path, capsys):
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", path, "--crs", "EPSG:4326"]) == 0
        assert json.loads(capsys.readouterr().out)["crs"] == "EPSG:4326"

    def test_topology_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(_):
            raise TopologyError("orphan hole", ring_index=0)

        monkeypatch.setattr(cli, "assemble_polygons", boom)
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", path]) == 2
        assert "topology" in capsys.readouterr().err


    # Products overflow to infinity; overflowing products of opposite sign
    # add up to NaN. The WKT cases carry the bare ids.
    @pytest.mark.parametrize(
        "mask,terms,fmt",
        [
            pytest.param(b"P1\n2 1\n11\n", "1e308 0 0 -1e308 0 0", "wkt", id="inf"),
            pytest.param(b"P1\n2 2\n1111\n", "1e308 0 -1e308 -1e308 0 0", "wkt", id="nan"),
            pytest.param(
                b"P1\n2 1\n11\n", "1e308 0 0 -1e308 0 0", "geojson", id="geojson-inf"
            ),
            pytest.param(
                b"P1\n2 2\n1111\n", "1e308 0 -1e308 -1e308 0 0", "geojson", id="geojson-nan"
            ),
            # Corner (2, 2), where the only ring starts and ends, has a NaN lon.
            *(
                pytest.param(
                    b"P1\n3 3\n0 0 0\n0 0 0\n0 0 1\n", "1e308 1 -1e308 1 0.5 0", fmt,
                    id=f"{fmt}-nan-at-first-corner",
                )
                for fmt in ("geojson", "wkt", "rings-geojson")
            ),
        ],
    )
    def test_non_finite_wkt_exits_one(self, tmp_path, capsys, mask, terms, fmt):
        mask = write_mask_file(tmp_path, mask)
        world = tmp_path / "mask.wld"
        world.write_text(terms.replace(" ", "\n") + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["delineate", "--input", mask, "--world", str(world),
                           "--format", fmt])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "gridtrace: error: ring 0 has a non-finite position\n"
        assert caught == []

    @pytest.mark.parametrize(
        "stage,error",
        [("detect", TraceError), ("form_rings", RingTraversalError)],
    )
    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch, stage, error):
        def boom(*_):
            raise error("wiring is inconsistent")

        monkeypatch.setattr(cli, stage, boom)
        path = write_mask_file(tmp_path, SINGLE_PIXEL_PBM)
        assert cli.main(["delineate", "--input", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "gridtrace: internal error: wiring is inconsistent\n"


def text_of(length: int) -> str:
    """`length` characters of one to three UTF-8 bytes each, ending in a
    newline when `length` is even, so that slices split multi-byte runs."""
    text = ("ab\u00e9\u6c34" * (length // 4 + 1))[:length]
    return text[:-1] + "\n" if length % 2 == 0 else text


SLICE_LENGTHS = [1, cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 2 * cli._SLICE + 2]


class TestEmit:
    """Text is written in slices of `cli._SLICE` characters, with the bytes
    it would have as one write."""

    @staticmethod
    def expected(text: str) -> bytes:
        return text.encode() + (b"" if text.endswith("\n") else b"\n")

    @pytest.mark.parametrize("length", SLICE_LENGTHS)
    def test_file_bytes(self, tmp_path, length):
        out = tmp_path / "out"
        text = text_of(length)
        cli._emit(text, str(out))
        assert out.read_bytes() == self.expected(text)

    @pytest.mark.parametrize("length", SLICE_LENGTHS)
    def test_stdout_bytes(self, capsysbinary, length):
        text = text_of(length)
        cli._emit(text, "-")
        assert capsysbinary.readouterr().out == self.expected(text)

    @pytest.mark.parametrize("length", SLICE_LENGTHS)
    def test_no_write_is_longer_than_a_slice(self, length):
        writes = []
        stream = SimpleNamespace(write=writes.append)
        text = text_of(length)
        cli._write(stream, text, "\n")
        assert max(map(len, writes)) <= cli._SLICE
        assert "".join(writes) == text + "\n"


class TestBench:
    def test_tiny_run_writes_csv(self, capsys):
        rc = cli.main(["bench", "--sizes", "6", "--p-steps", "2", "--trials", "1"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "size,p,trials,mean_seconds,stddev_seconds"
        assert len(lines) == 3
        assert "size 6" in err  # progress goes to stderr

    def test_zero_size_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--sizes", "0"])
        assert exc.value.code == 2

    def test_check_shape_passes_on_good_series(self, capsys, monkeypatch):
        def fake_run(sizes, p_steps=11, trials=10, seed=0, progress=None):
            bell = [0.01, 0.2, 0.5, 0.8, 1.0, 0.8, 0.5, 0.2, 0.01, 0.005, 0.002]
            return [
                TimingRecord(s, i / 10, trials, (s / 100) ** 2 * v, 0.0)
                for s in sizes
                for i, v in enumerate(bell)
            ]

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        rc = cli.main(["bench", "--sizes", "100", "200", "--check-shape"])
        assert rc == 0

    def test_check_shape_fails_on_flat_series(self, capsys, monkeypatch):
        def fake_run(sizes, p_steps=11, trials=10, seed=0, progress=None):
            return [
                TimingRecord(s, i / 10, trials, 1.0, 0.0)
                for s in sizes
                for i in range(11)
            ]

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        rc = cli.main(["bench", "--sizes", "100", "--check-shape"])
        assert rc == 1
        assert "shape violation" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["2", "4"])
    def test_check_shape_refuses_fewer_than_five_p_steps_before_timing(
        self, capsys, monkeypatch, steps
    ):
        def timed(*args, **kwargs):
            raise AssertionError("the grid was timed before the arguments were checked")

        monkeypatch.setattr(cli, "run_experiment", timed)
        rc = cli.main(["bench", "--sizes", "8", "--p-steps", steps, "--check-shape"])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"gridtrace: error: --check-shape needs --p-steps >= 5, got {steps}\n"
        )

    def test_output_file(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.main(["bench", "--sizes", "4", "--p-steps", "2", "--trials", "1",
                         "--output", str(out)]) == 0
        assert out.read_text().startswith("size,p,")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["gridtrace", "gridtrace.cli"])
def test_module_forms_run_the_cli(tmp_path, capsys, module):
    mask = write_mask_file(tmp_path, write_mask(bernoulli(20, 15, 0.5, 3), "pbm-binary"))
    good, bad = tmp_path / "good.wld", tmp_path / "bad.wld"
    good.write_text("0.5\n0\n0\n-0.5\n10\n20\n")
    bad.write_text("1\n0\n0\n")
    src = str(Path(gridtrace.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for world, code in [(good, 0), (bad, 1)]:
        for fmt in ["geojson", "wkt", "rings-geojson"]:
            argv = ["delineate", "--input", mask, "--world", str(world), "--format", fmt]
            assert cli.main(argv + ["--output", str(tmp_path / "in-process")]) == code
            err = capsys.readouterr().err
            run = subprocess.run(
                [sys.executable, "-m", module, *argv, "--output", str(tmp_path / "module")],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (run.returncode, run.stdout, run.stderr) == (code, "", err)
            if code == 0:
                assert (tmp_path / "module").read_bytes() == (tmp_path / "in-process").read_bytes()


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsysbinary):
    # One parser serves every call; an option given in one call, or a usage
    # error, must not carry over into the next.
    mask = write_mask_file(tmp_path, write_mask(bernoulli(9, 7, 0.5, 2), "pbm-binary"))
    world = tmp_path / "north-up.wld"
    world.write_text("0.5\n0\n0\n-0.5\n10\n20\n")
    base = ["delineate", "--input", mask]
    calls = [
        [*base, "--format", "wkt"],
        [*base, "--crs", "EPSG:4326", "--world", str(world)],
        [*base, "--format", "rings-geojson", "--crs", "urn:ogc:def:crs:OGC::CRS84"],
        [*base, "--format", "bogus"],
        [*base],
        [*base, "--format", "rings-geojson"],
        [*base, "--world", str(tmp_path / "missing.wld"), "--format", "wkt"],
        [*base, "--format", "geojson", "--crs", "EPSG:3857"],
    ]
    src = str(Path(gridtrace.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsysbinary.readouterr()
        run = subprocess.run(
            [sys.executable, "-m", "gridtrace", *argv], env=env, capture_output=True, timeout=60
        )
        assert (code, out, err) == (run.returncode, run.stdout, run.stderr), argv
