import numpy as np
import pytest

from avmatch.errors import DataError
from avmatch.visual import bilinear_resize, build_visual_cube


def gradient_frames(n=12, h=60, w=100):
    """Frames whose mean intensity encodes the frame index."""
    return [np.full((h, w), float(i)) + np.linspace(0, 1, w)[None, :] for i in range(n)]


class TestResize:
    def test_identity_at_target_size(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(60, 100))
        np.testing.assert_array_equal(bilinear_resize(img, 60, 100), img)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(120, 200))
        once = bilinear_resize(img, 60, 100)
        np.testing.assert_array_equal(bilinear_resize(once, 60, 100), once)

    def test_constant_stays_constant(self):
        out = bilinear_resize(np.full((120, 200), 37.0), 60, 100)
        np.testing.assert_allclose(out, 37.0)

    def test_values_bounded_by_input(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(10, 20, size=(90, 150))
        out = bilinear_resize(img, 60, 100)
        assert out.min() >= 10 and out.max() <= 20

    def test_rejects_non_grayscale(self):
        with pytest.raises(DataError):
            bilinear_resize(np.zeros((4, 4, 3)), 60, 100)


class TestVisualCube:
    def test_passthrough_shape(self):
        cube = build_visual_cube(gradient_frames(), start=0)
        assert cube.values.data.shape == (9, 60, 100, 1)

    def test_constant_frames_give_zero_cube(self):
        frames = [np.full((60, 100), 128.0)] * 9
        cube = build_visual_cube(frames, start=0)
        np.testing.assert_array_equal(cube.values.data, 0.0)

    def test_downscaled_input(self):
        frames = [np.full((120, 200), float(i * 10)) for i in range(9)]
        cube = build_visual_cube(frames, start=0)
        assert cube.values.data.shape == (9, 60, 100, 1)
        # constant per frame stays constant after resize: no within-frame spread
        per_frame = cube.values.data.reshape(9, -1)
        np.testing.assert_allclose(per_frame.std(axis=1), 0.0, atol=1e-12)

    def test_temporal_order_preserved(self):
        cube = build_visual_cube(gradient_frames(), start=2)
        means = cube.values.data.reshape(9, -1).mean(axis=1)
        assert np.all(np.diff(means) > 0)
        assert cube.start_frame == 2

    def test_not_enough_frames(self):
        with pytest.raises(DataError):
            build_visual_cube(gradient_frames(8), start=0)
        with pytest.raises(DataError):
            build_visual_cube(gradient_frames(12), start=4)

    def test_non_grayscale_frame_rejected(self):
        frames = gradient_frames(9)
        frames[3] = np.zeros((60, 100, 3))
        with pytest.raises(DataError):
            build_visual_cube(frames, start=0)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_frame_rejected_naming_it(self, shape):
        frames = gradient_frames(9)
        frames[4] = np.zeros(shape)
        with pytest.raises(DataError, match=r"frame 4 is empty"):
            build_visual_cube(frames, start=0)

    def test_standardized(self):
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0, 255, size=(60, 100)) for _ in range(9)]
        cube = build_visual_cube(frames, start=0).values.data
        assert abs(cube.mean()) < 1e-6
        assert abs(cube.std() - 1.0) < 1e-6
