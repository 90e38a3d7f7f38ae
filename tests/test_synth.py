import csv

import numpy as np

from avmatch import io as avio
from avmatch.synth import SynthConfig, generate_corpus


def test_corpus_format(tmp_path):
    manifest = generate_corpus(tmp_path, SynthConfig(n_subjects=1, clips_per_subject=1,
                                                     clip_s=0.9), seed=0)
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert (rows[0]["fps"], rows[0]["sample_rate"]) == ("30", "16000")

    row = avio.load_manifest(manifest)[0]
    audio = avio.read_wav(row.audio_path)
    assert audio.sample_rate == 16000
    assert audio.samples.shape == (14400,)
    frames = avio.read_frame_dir(row.frames_dir)
    assert len(frames) == 27
    assert all(f.shape == (60, 100) and f.dtype == np.uint8 for f in frames)
