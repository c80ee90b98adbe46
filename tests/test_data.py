"""Dataset decode, synthetic generator, augmentation, resize, batching."""

import numpy as np
import pytest

from conftest import write_cifar10_fixture
from ctanet import data as D
from ctanet import tensor as T
from ctanet.errors import ConfigError, DataError


class TestCifarDecode:
    def test_single_record_byte_exact(self, tmp_path):
        path = tmp_path / "one.bin"
        write_cifar10_fixture(path, [(7, np.full((3, 32, 32), 255, dtype=np.uint8))])
        images, labels = D.decode_cifar_records(path.read_bytes(), coarse_fine=False)
        assert labels.tolist() == [7]
        assert images.shape == (1, 3, 32, 32)
        assert (images == 1.0).all()

    def test_two_records_in_file_order(self, tmp_path):
        a = np.zeros((3, 32, 32), dtype=np.uint8)
        b = np.full((3, 32, 32), 128, dtype=np.uint8)
        path = tmp_path / "two.bin"
        write_cifar10_fixture(path, [(1, a), (2, b)])
        images, labels = D.decode_cifar_records(path.read_bytes(), coarse_fine=False)
        assert labels.tolist() == [1, 2]
        assert images[0].max() == 0.0
        assert abs(images[1].min() - 128 / 255) < 1e-7

    def test_channel_planar_layout(self, tmp_path):
        pixels = np.zeros((3, 32, 32), dtype=np.uint8)
        pixels[0, 0, 0] = 255   # red plane, first pixel
        pixels[2, 31, 31] = 60  # blue plane, last pixel
        path = tmp_path / "planar.bin"
        write_cifar10_fixture(path, [(0, pixels)])
        images, _ = D.decode_cifar_records(path.read_bytes(), coarse_fine=False)
        assert images[0, 0, 0, 0] == 1.0
        assert abs(images[0, 2, 31, 31] - 60 / 255) < 1e-7
        assert images[0, 1].max() == 0.0

    def test_truncated_file_names_offset(self):
        raw = bytes(3073 * 2 + 3000)
        with pytest.raises(DataError, match="6146"):
            D.decode_cifar_records(raw, coarse_fine=False)

    def test_cifar100_uses_fine_label(self):
        rec = bytes([5, 42]) + bytes(3072)
        _, labels = D.decode_cifar_records(rec, coarse_fine=True)
        assert labels.tolist() == [42]

    def test_cifar10_label_out_of_range_names_record_and_value(self):
        raw = bytes([3]) + bytes(3072) + bytes([10]) + bytes(3072)
        with pytest.raises(DataError, match=r"one\.bin: record 1 has label 10"):
            D.decode_cifar_records(raw, coarse_fine=False, path="one.bin")

    @pytest.mark.parametrize("coarse,fine,what", [(20, 42, "coarse label 20"),
                                                  (5, 100, "fine label 100"),
                                                  (255, 255, "coarse label 255")])
    def test_cifar100_label_out_of_range(self, coarse, fine, what):
        raw = bytes([19, 99]) + bytes(3072) + bytes([coarse, fine]) + bytes(3072)
        with pytest.raises(DataError, match=f"train.bin: record 1 has {what}"):
            D.decode_cifar_records(raw, coarse_fine=True, path="train.bin")

    def test_subset_load_rejects_bad_label_instead_of_dropping_it(self, cifar10_root):
        path = cifar10_root / "cifar-10-batches-bin" / "data_batch_1.bin"
        raw = bytearray(path.read_bytes())
        raw[5 * 3073] = 200                      # record 5's label byte
        path.write_bytes(bytes(raw))
        spec = D.DatasetSpec(kind="cifar10", root=str(cifar10_root), subset_size=10)
        with pytest.raises(DataError, match=r"data_batch_1\.bin: record 5 has label 200"):
            D.load_dataset(spec)

    def test_loader_full_pipeline(self, cifar10_root):
        spec = D.DatasetSpec(kind="cifar10", root=str(cifar10_root), split="train")
        ds = D.load_cifar(spec)
        assert len(ds) == 20 and ds.num_classes == 10
        test = D.load_cifar(D.DatasetSpec(kind="cifar10", root=str(cifar10_root), split="test"))
        assert len(test) == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            D.load_cifar(D.DatasetSpec(kind="cifar10", root=str(tmp_path)))

    def test_cifar100_directory_convention(self, tmp_path):
        base = tmp_path / "cifar-100-binary"
        base.mkdir()
        rec = bytes([3, 77]) + bytes(np.full(3072, 200, dtype=np.uint8))
        (base / "train.bin").write_bytes(rec * 3)
        (base / "test.bin").write_bytes(rec)
        ds = D.load_cifar(D.DatasetSpec(kind="cifar100", root=str(tmp_path)))
        assert len(ds) == 3 and ds.num_classes == 100
        assert ds.labels.tolist() == [77, 77, 77]  # fine labels, not coarse


class TestStratifiedSubset:
    def test_exact_per_class_counts(self):
        ds = D.synth_dataset(10, 200, 8, seed=1)
        sub = D.stratified_subset(ds, 50, seed=2)
        counts = np.bincount(sub.labels, minlength=10)
        assert counts.tolist() == [5] * 10

    def test_deterministic(self):
        ds = D.synth_dataset(4, 40, 8, seed=1)
        a = D.stratified_subset(ds, 12, seed=9)
        b = D.stratified_subset(ds, 12, seed=9)
        assert np.array_equal(a.images, b.images)

    def test_oversized_subset_rejected(self):
        ds = D.synth_dataset(4, 16, 8, seed=1)
        with pytest.raises(DataError):
            D.stratified_subset(ds, 17, seed=0)


class TestSynth:
    def test_same_seed_bit_identical(self):
        a = D.synth_dataset(10, 30, 16, seed=3)
        b = D.synth_dataset(10, 30, 16, seed=3)
        assert a.images.tobytes() == b.images.tobytes()

    def test_class_means_pairwise_distinct(self):
        colors = D.synth_class_colors(10)
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(colors[i] - colors[j]).max() > 0.05

    def test_nearest_color_probe_accuracy(self):
        # mean color is a linear statistic; nearest class centroid >= 95%
        ds = D.synth_dataset(10, 1000, 16, seed=4)
        means = ds.images.mean(axis=(2, 3))              # [n, 3]
        centroids = D.synth_class_colors(10)
        pred = np.argmin(((means[:, None] - centroids[None]) ** 2).sum(-1), axis=1)
        assert (pred == ds.labels).mean() >= 0.95

    def test_min_samples(self):
        with pytest.raises(DataError):
            D.synth_dataset(10, 5, 8, seed=0)


class TestAugment:
    def _batch(self, seed=5, n=6, size=16):
        imgs = T.uniform([n, 3, size, size], 0, 1, seed=seed).numpy()
        return D.Dataset(imgs, np.arange(n) % 3, 3)

    def test_all_flags_off_identity(self):
        b = self._batch()
        out = D.augment(b, D.AugmentFlags(), seed=1)
        assert out.images.tobytes() == b.images.tobytes()

    def test_forced_flip_is_involution(self):
        b = self._batch()
        mask = np.ones(6, dtype=bool)
        once = D.hflip(b.images, mask)
        twice = D.hflip(once, mask)
        assert twice.tobytes() == b.images.tobytes()
        assert not np.array_equal(once, b.images)

    def test_crop_of_constant_image_is_constant(self):
        imgs = np.full((2, 3, 16, 16), 0.25, dtype=np.float32)
        out = D.pad_reflect_crop(imgs, np.array([[3, 7], [0, 0]]))
        assert out.shape == imgs.shape
        assert (out == 0.25).all()

    def test_seeded_pipeline_reproducible(self):
        flags = D.AugmentFlags(crop=True, flip=True, rotate=True, jitter=True)
        b = self._batch()
        a1 = D.augment(b, flags, seed=11)
        a2 = D.augment(b, flags, seed=11)
        a3 = D.augment(b, flags, seed=12)
        assert a1.images.tobytes() == a2.images.tobytes()
        assert a1.images.tobytes() != a3.images.tobytes()

    def test_zero_rotation_identity(self):
        b = self._batch()
        out = D.rotate_bilinear(b.images, np.zeros(6))
        assert np.abs(out - b.images).max() < 1e-6

    def test_jitter_bounds(self):
        b = self._batch()
        out = D.color_jitter(b.images, np.full((6, 3), 1.2))
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestResizeAndBatching:
    def test_resize_same_size_identity(self):
        batch = T.uniform([2, 3, 32, 32], seed=6).numpy()
        out = D.resize_array(batch, 32)
        assert out.tobytes() == batch.tobytes()

    def test_bilinear_hand_case(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        batch = np.broadcast_to(img, (1, 3, 2, 2)).copy()
        out = D.resize_array(batch, 3)
        assert out.shape == (1, 3, 3, 3)
        assert abs(out[0, 0, 1, 1] - 0.5) < 1e-7    # center mixes all four corners
        assert out[0, 0, 0, 0] == 0.0 and out[0, 0, 0, 2] == 1.0  # corners aligned

    def test_upsample_to_224(self):
        batch = T.uniform([2, 3, 32, 32], 0, 1, seed=7).numpy()
        out = D.resize_array(batch, 224)
        assert out.shape == (2, 3, 224, 224)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @staticmethod
    def _resize_oracle(images, target):
        """Every output row pair gathered from the source, then blended."""
        B, C, H, W = images.shape
        sy, sx = [np.zeros(1) if target == 1 else np.arange(target, dtype=np.float64) * (s - 1) / (target - 1)
                  for s in (H, W)]
        y0 = np.clip(np.floor(sy).astype(np.int64), 0, H - 1)
        x0 = np.clip(np.floor(sx).astype(np.int64), 0, W - 1)
        y1, x1 = np.minimum(y0 + 1, H - 1), np.minimum(x0 + 1, W - 1)
        fy, fx = sy - y0, sx - x0
        top = images[:, :, y0][:, :, :, x0] * (1 - fx) + images[:, :, y0][:, :, :, x1] * fx
        bot = images[:, :, y1][:, :, :, x0] * (1 - fx) + images[:, :, y1][:, :, :, x1] * fx
        return (top * (1 - fy)[:, None] + bot * fy[:, None]).astype(images.dtype)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("shape,target", [([2, 3, 32, 32], 224), ([5, 3, 32, 32], 64),
                                              ([3, 1, 7, 9], 13), ([3, 1, 7, 9], 1)])
    def test_resize_bytes_match_gathered_rows_oracle(self, shape, target, dtype):
        batch = T.uniform(shape, 0, 1, seed=9, dtype=dtype).numpy()
        out = D.resize_array(batch, target)
        assert out.dtype == batch.dtype and out.shape == (shape[0], shape[1], target, target)
        assert out.tobytes() == self._resize_oracle(batch, target).tobytes()

    def test_batch_iter_final_short_batch(self):
        ds = D.synth_dataset(5, 10, 8, seed=8)
        sizes = [len(b.labels) for b in D.batch_iter(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_batch_iter_seeded_permutation(self):
        ds = D.synth_dataset(5, 10, 8, seed=8)
        order1 = [b.labels.tolist() for b in D.batch_iter(ds, 4, shuffle_seed=1)]
        order2 = [b.labels.tolist() for b in D.batch_iter(ds, 4, shuffle_seed=1)]
        order3 = [b.labels.tolist() for b in D.batch_iter(ds, 4, shuffle_seed=2)]
        assert order1 == order2
        assert order1 != order3

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            D.DatasetSpec(kind="imagenet").validate()
        with pytest.raises(ConfigError):
            D.DatasetSpec(target_size=64).validate()
