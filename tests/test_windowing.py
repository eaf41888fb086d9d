import io
import pickle
import struct

import numpy as np
import pytest

from fakeseg import (
    FeatureSequence,
    SegmentationMap,
    TrainConfig,
    TransformerConfig,
    frames_from_windows,
    make_windows,
    read_features,
    window_starts,
    windows_for_split,
    write_features,
)
from fakeseg import windowing
from fakeseg.harness.experiment import fit
from fakeseg.windowing import FEATURE_MAGIC, FEATURE_VERSION, joined_features, label_path_for, load_split_features


def _seq(t, d=3, labels=None, seed=0):
    feats = np.random.default_rng(seed).standard_normal((t, d)).astype(np.float32)
    smap = SegmentationMap(labels) if labels is not None else None
    return FeatureSequence(video_id="v", features=feats, labels=smap)


def test_a_labeled_sequence_survives_pickle():
    seq = _seq(6, labels=[0, 1, 1, 0, 0, 1])
    back = pickle.loads(pickle.dumps(seq))
    assert back.video_id == seq.video_id and back.labels == seq.labels
    assert back.features.tobytes() == seq.features.tobytes() and back.features.dtype == np.float32
    assert not back.labels.labels.flags.writeable


# -- window geometry --


def test_starts_stride_one():
    assert window_starts(10, 5, 4).tolist() == [0, 1, 2, 3, 4, 5]


def test_starts_single_window():
    assert window_starts(5, 5, 0).tolist() == [0]


def test_starts_with_right_aligned_tail():
    # stride 3 covers 0,3,6 but leaves frame 11 uncovered -> extra start at 7
    assert window_starts(12, 5, 2).tolist() == [0, 3, 6, 7]


def test_starts_validation():
    with pytest.raises(ValueError):
        window_starts(4, 5, 0)
    with pytest.raises(ValueError):
        window_starts(10, 5, 5)
    with pytest.raises(ValueError):
        window_starts(10, 5, -1)


def test_coverage_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = int(rng.integers(1, 60))
        w = int(rng.integers(1, t + 1))
        overlap = int(rng.integers(0, w))
        starts = window_starts(t, w, overlap)
        covered = np.zeros(t, dtype=bool)
        for s in starts:
            covered[s : s + w] = True
        assert covered.all()
        assert starts[-1] == t - w
        assert (np.diff(starts) > 0).all()


def test_stride_one_interior_coverage_count():
    t, w = 30, 5
    starts = window_starts(t, w, w - 1)
    count = np.zeros(t, dtype=int)
    for s in starts:
        count[s : s + w] += 1
    assert (count[w - 1 : t - w + 1] == w).all()


# -- window content and labels --


def test_window_content_matches_slices():
    wide = _seq(12, d=8).features
    # C-ordered, Fortran-ordered and column-strided features all give C-contiguous windows
    for feats in (np.ascontiguousarray(wide[:, :4]), np.asfortranarray(wide[:, :4]), wide[:, ::2]):
        seq = FeatureSequence("v", feats)
        cut = make_windows(seq, 5, 2)
        windows = cut[:]
        assert windows.flags.c_contiguous and windows.shape == (len(cut.starts), 5, 4)
        for row, s in zip(windows, cut.starts):
            assert np.array_equal(row, seq.features[s : s + 5])


def _window_labels(seq, window, overlap):
    """The center-frame labels `windows_for_split` gives the video's windows."""
    cfg = TransformerConfig(input_dim=seq.dim, window=window)
    return windows_for_split([seq], cfg, overlap)[1]


def test_center_frame_labels():
    labels = [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    seq = _seq(10, labels=labels)
    expected = [labels[s + 2] for s in window_starts(10, 5, 4)]
    assert _window_labels(seq, 5, 4).tolist() == expected


def test_constant_labels_make_constant_window_labels():
    seq = _seq(9, labels=[1] * 9)
    assert set(_window_labels(seq, 4, 1).tolist()) == {1}


def test_unlabeled_sequence_has_no_window_labels():
    with pytest.raises(ValueError, match=r"video 'v' has no labels"):
        _window_labels(_seq(8), 3, 0)


def test_video_shorter_than_the_window_is_named():
    seq = FeatureSequence(video_id="clip7", features=np.zeros((3, 2), np.float32))
    with pytest.raises(ValueError, match=r"video 'clip7' has 3 frames, fewer than the window of 5"):
        make_windows(seq, 5, 4)


# -- frame projection --


def test_single_window_projection():
    scores = frames_from_windows(np.array([0.7]), np.array([0]), 6, 6)
    assert np.allclose(scores.scores, 0.7)


def test_two_window_overlap_example():
    scores = frames_from_windows(np.array([1.0, 0.0]), np.array([0, 1]), 5, 6)
    assert scores.scores[0] == 1.0
    assert np.allclose(scores.scores[1:5], 0.5)
    assert scores.scores[5] == 0.0


def test_constant_scores_project_to_constant():
    starts = window_starts(20, 5, 4)
    scores = frames_from_windows(np.full(starts.size, 0.42), starts, 5, 20)
    assert np.allclose(scores.scores, 0.42)


def test_projection_permutation_invariance_and_linearity():
    rng = np.random.default_rng(1)
    starts = window_starts(15, 4, 2)
    w_scores = rng.random(starts.size)
    base = frames_from_windows(w_scores, starts, 4, 15).scores
    perm = rng.permutation(starts.size)
    shuffled = frames_from_windows(w_scores[perm], starts[perm], 4, 15).scores
    assert np.allclose(base, shuffled)
    half = frames_from_windows(w_scores / 2, starts, 4, 15).scores
    assert np.allclose(half, base / 2)


def test_projection_uncovered_frame_is_internal_error():
    with pytest.raises(RuntimeError, match="not covered"):
        frames_from_windows(np.array([0.5]), np.array([0]), 3, 6)


def test_projection_geometry_validation():
    with pytest.raises(ValueError):
        frames_from_windows(np.array([0.5]), np.array([4]), 3, 6)
    with pytest.raises(ValueError):
        frames_from_windows(np.array([0.5, 0.5]), np.array([0]), 3, 6)


def test_projection_max_and_center_modes():
    starts = np.array([0, 1])
    w_scores = np.array([0.2, 0.8])
    mx = frames_from_windows(w_scores, starts, 5, 6, mode="max").scores
    assert mx[0] == 0.2 and (mx[1:] == 0.8).all()
    ct = frames_from_windows(w_scores, starts, 5, 6, mode="center").scores
    assert ct[2] == 0.2 and ct[3] == 0.8
    assert ct[0] == ct[1] == 0.2  # nearest-center fill
    assert ct[4] == ct[5] == 0.8
    with pytest.raises(ValueError):
        frames_from_windows(w_scores, starts, 5, 6, mode="median")


# -- feature file format --


def test_feature_file_round_trip(tmp_path):
    seq = _seq(17, d=5, labels=([0] * 9 + [1] * 8), seed=3)
    path = tmp_path / "v.feat"
    write_features(path, seq)
    back = read_features(path)
    assert back.video_id == "v"
    assert np.array_equal(back.features, seq.features)
    assert back.features.dtype == np.float32
    assert back.labels == seq.labels
    assert label_path_for(path).name == "v.feat.labels"


def test_feature_file_without_labels(tmp_path):
    seq = _seq(6, d=2)
    write_features(tmp_path / "x.feat", seq)
    assert read_features(tmp_path / "x.feat").labels is None


def test_feature_file_errors(tmp_path):
    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        read_features(bad)

    seq = _seq(4, d=2)
    good = tmp_path / "good.feat"
    write_features(good, seq)
    data = good.read_bytes()
    (tmp_path / "trunc.feat").write_bytes(data[:-5])
    with pytest.raises(ValueError, match="truncated"):
        read_features(tmp_path / "trunc.feat")
    (tmp_path / "vers.feat").write_bytes(data[:4] + b"\x09\x00\x00\x00" + data[8:])
    with pytest.raises(ValueError, match="version"):
        read_features(tmp_path / "vers.feat")


def test_feature_file_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "junk.feat"
    write_features(path, _seq(10, d=4))
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02\x03")
    with pytest.raises(ValueError, match="junk.feat.*trailing"):
        read_features(path)


def test_feature_file_rejects_short_header(tmp_path):
    path = tmp_path / "short.feat"
    write_features(path, _seq(10, d=4))
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match="short.feat.*header"):
        read_features(path)


def test_feature_file_names_a_label_file_of_the_wrong_length(tmp_path):
    path = tmp_path / "v.feat"
    write_features(path, _seq(10, d=2))
    label_path_for(path).write_text("RRFFR\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"v\.feat\.labels.*label length 5 does not match 10"):
        read_features(path)


def test_feature_file_names_a_label_file_with_a_bad_character(tmp_path):
    path = tmp_path / "v.feat"
    write_features(path, _seq(4, d=2))
    label_path_for(path).write_text("RXFR\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"v\.feat\.labels.*invalid characters"):
        read_features(path)


@pytest.mark.parametrize("t, d", [(0, 4), (5, 0)], ids=["no-frames", "no-dims"])
def test_feature_file_names_an_empty_matrix(tmp_path, t, d):
    path = tmp_path / "empty.feat"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, d))
    with pytest.raises(ValueError, match=r"empty\.feat: features must be a T x d matrix") as info:
        read_features(path)
    assert str(info.value).count("empty.feat") == 1


@pytest.mark.parametrize(
    "t, d", [(2**32 - 1, 2**32 - 1), (2**20, 2**12)], ids=["past-index-range", "16-gib"]
)
def test_feature_file_names_a_header_larger_than_the_file(tmp_path, t, d):
    """The header's size is checked against the file before anything is read."""
    path = tmp_path / "huge.feat"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, d) + bytes(64))
    needs = 16 + 4 * t * d
    with pytest.raises(ValueError, match=rf"huge\.feat: truncated .*{t}x{d}.*{needs} bytes.* 80"):
        read_features(path)


# -- a split read into one array --


def _write_split(root, lengths, d=3):
    """Labeled videos v0, v1, ... written under root; every other one without labels."""
    root.mkdir(parents=True, exist_ok=True)
    seqs = []
    for i, t in enumerate(lengths):
        feats = np.random.default_rng(i).standard_normal((t, d)).astype(np.float32)
        labels = SegmentationMap(np.arange(t) % 3 == 0) if i % 2 == 0 else None
        seqs.append(FeatureSequence(f"v{i}", feats, labels))
        write_features(root / f"v{i}.feat", seqs[-1])
    return seqs


def test_a_split_is_read_into_one_array(tmp_path):
    written = _write_split(tmp_path, [7, 1, 12, 5])
    seqs = load_split_features(tmp_path)
    assert [seq.video_id for seq in seqs] == ["v0", "v1", "v2", "v3"]
    for got, want in zip(seqs, written):
        assert got.features.dtype == np.float32 and got.features.tobytes() == want.features.tobytes()
        assert got.labels == want.labels
    buffer = seqs[0].features.base
    assert buffer.size == 25 * 3 and all(seq.features.base is buffer for seq in seqs)
    assert buffer.tobytes() == b"".join(seq.features.tobytes() for seq in written)
    whole = joined_features(seqs)
    assert whole.shape == (25, 3) and whole.base is buffer


def test_videos_not_read_as_a_split_are_joined_by_a_copy(tmp_path):
    written = _write_split(tmp_path, [7, 1, 12])
    seqs = load_split_features(tmp_path)
    for picked in ([written[0], written[2]], [seqs[0], seqs[2]], [seqs[1], seqs[0], seqs[2]], seqs[1:]):
        whole = joined_features(picked)
        assert whole.tobytes() == b"".join(seq.features.tobytes() for seq in picked)
        assert not any(np.shares_memory(whole, seq.features) for seq in picked)
    one = written[0].features  # a video that owns its features is joined as a view of them
    assert joined_features(written[:1]).base is one and joined_features(written[:1]).tobytes() == one.tobytes()


def test_a_split_of_one_file_or_path_reads_like_read_features(tmp_path):
    _write_split(tmp_path, [9])
    (seq,) = load_split_features(tmp_path / "v0.feat")
    want = read_features(tmp_path / "v0.feat")
    assert seq.video_id == want.video_id and seq.labels == want.labels
    assert seq.features.tobytes() == want.features.tobytes()


def test_a_split_may_hold_videos_of_different_widths(tmp_path):
    """Each keeps its own width, so `check_features` can name the one a model does not take."""
    written = _write_split(tmp_path, [6, 4])
    write_features(tmp_path / "v2.feat", FeatureSequence("v2", np.ones((5, 4), np.float32)))
    seqs = load_split_features(tmp_path)
    assert [seq.features.shape for seq in seqs] == [(6, 3), (4, 3), (5, 4)]
    assert seqs[0].features.tobytes() == written[0].features.tobytes() and (seqs[2].features == 1).all()
    with pytest.raises(ValueError):
        np.concatenate([seq.features for seq in seqs])
    # the first two alone do not fill the buffer, so they are copied
    assert joined_features(seqs[:2]).tobytes() == seqs[0].features.tobytes() + seqs[1].features.tobytes()


def _corruptions(path):
    """(name, bytes of the .feat file, text of its label file or None) for bad files."""
    data = path.read_bytes()
    return [
        ("magic", b"NOPE" + data[4:], None),
        ("short-header", data[:10], None),
        ("version", data[:4] + b"\x09\x00\x00\x00" + data[8:], None),
        ("truncated", data[:-5], None),
        ("trailing", data + b"\x00\x01\x02\x03", None),
        ("huge", FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, 2**32 - 1, 2**32 - 1) + bytes(64), None),
        ("no-frames", FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, 0, 3), None),
        ("label-length", data, "RRFFR\n"),
        ("label-character", data, "RX" + "R" * 8 + "\n"),
    ]


@pytest.mark.parametrize("case", range(9))
def test_a_split_reader_raises_what_read_features_raises(tmp_path, case):
    """Each file is checked as `read_features` checks it, with the same message."""
    _write_split(tmp_path, [10, 10])
    name, data, label_text = _corruptions(tmp_path / "v1.feat")[case]
    bad = tmp_path / "v1.feat"
    bad.write_bytes(data)
    if label_text is not None:
        label_path_for(bad).write_text(label_text, encoding="ascii")
    with pytest.raises(ValueError) as single:
        read_features(bad)
    with pytest.raises(ValueError) as split:
        load_split_features(tmp_path)
    assert str(split.value) == str(single.value), name
    assert "v1.feat" in str(split.value)


def test_a_file_cut_after_its_header_was_checked_is_named(tmp_path, monkeypatch):
    _write_split(tmp_path, [10, 10])
    check_header = windowing._read_header

    def check_then_cut(fh, path):
        shape = check_header(fh, path)
        if path.name == "v1.feat":
            path.write_bytes(path.read_bytes()[:-8])
        return shape

    monkeypatch.setattr(windowing, "_read_header", check_then_cut)
    with pytest.raises(ValueError, match=r"v1\.feat: truncated feature file: read 112 of its 10x3 features' 120 bytes"):
        load_split_features(tmp_path)


def test_a_file_that_grew_after_the_split_was_sized_is_named(tmp_path, monkeypatch):
    """The buffer is sized from the files before each is opened; a file
    rewritten longer in between must not spill into the next video's rows."""
    _write_split(tmp_path, [10, 10])
    check_header = windowing._read_header

    def grow_then_check(fh, path):
        if path.name == "v0.feat":
            write_features(path, FeatureSequence("v0", np.ones((12, 3), np.float32)))
        return check_header(fh, path)

    monkeypatch.setattr(windowing, "_read_header", grow_then_check)
    with pytest.raises(ValueError, match=r"v0\.feat: the file changed size while it was read"):
        load_split_features(tmp_path)


def test_rows_are_read_whole_when_each_read_returns_part_of_them(tmp_path, monkeypatch):
    """One read returns at most about 2 GiB on Linux; a short read is not the end of the rows."""

    class ShortReads(io.FileIO):
        def readinto(self, b):
            return super().readinto(memoryview(b).cast("B")[:7])

    written = _write_split(tmp_path, [10, 3])
    monkeypatch.setattr(windowing, "open", lambda path, mode, buffering: ShortReads(path, mode), raising=False)
    seqs = load_split_features(tmp_path)
    assert [seq.features.tobytes() for seq in seqs] == [seq.features.tobytes() for seq in written]


def test_read_features_takes_one_file_not_a_directory(tmp_path):
    _write_split(tmp_path / "split", [6])
    with pytest.raises(IsADirectoryError):
        read_features(tmp_path / "split")
    (seq,) = load_split_features(tmp_path / "split")
    assert seq.features.tobytes() == read_features(tmp_path / "split" / "v0.feat").features.tobytes()


def test_an_empty_split_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="no .feat files"):
        load_split_features(tmp_path)


def test_no_videos_to_window_is_an_error():
    cfg = TransformerConfig(input_dim=3, window=5, num_blocks=1, num_heads=1, head_dim=2)
    with pytest.raises(ValueError, match="^no videos to cut windows from$"):
        windows_for_split([], cfg, overlap=4)
    val = [_seq(20, labels=np.arange(20) % 2)]
    with pytest.raises(ValueError, match="^no videos to cut windows from$"):
        fit(cfg, TrainConfig(max_epochs=1), [], val, overlap=4)
