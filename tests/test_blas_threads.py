"""`train`, `evaluate` and `explain` write the same bytes whatever the BLAS
thread count and however many workers run, at a width where OpenBLAS threads;
`explain` does so both from evaluate's test_attention.bin and from its own forwards."""

import ctypes
import hashlib

import numpy as np
import pytest

from transecg import cli, explain, training

ARGS = [
    "--seed", "0", "--task", "gender",
    "--set", "seq_len=1000", "--set", "patch_size=20",
    "--set", "hidden_dim=256", "--set", "n_layers=1", "--set", "n_heads=4",
    "--set", "mlp_dim=64", "--set", "survival_prob=1.0",
    "--set", "synth_subjects=8", "--set", "synth_duration_s=16",
    "--set", "max_epochs=1", "--set", "batch_size=8", "--set", "explain_windows=8",
]


def openblas_threads():
    """The getter and setter of numpy's OpenBLAS thread count, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("wide")
    for command in ("synth", "preprocess", "train"):
        assert cli.main([command, "--workdir", str(workdir), *ARGS]) == 0
    return workdir


def sha256s(files):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def outputs(workdir):
    """sha256 of metrics.json, test_attention.bin and every explain/ file after
    evaluate and explain. explain, run again without test_attention.bin and so on
    its own forwards, must write the same explain/ files."""
    for command in ("evaluate", "explain"):
        assert cli.main([command, "--workdir", str(workdir), *ARGS]) == 0
    saved = workdir / explain.ATTENTION_FILE
    reports = sha256s(sorted((workdir / "explain").iterdir()))
    got = {**sha256s([workdir / "metrics.json", saved]), **reports}
    saved.unlink()
    assert cli.main(["explain", "--workdir", str(workdir), *ARGS]) == 0
    assert sha256s(sorted((workdir / "explain").iterdir())) == reports
    return got


def test_outputs_do_not_depend_on_the_blas_thread_count(trained):
    blas = openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread count setter")
    get, put = blas
    previous = get()
    try:
        put(1)
        one = outputs(trained)
        put(2)
        two = outputs(trained)
    finally:
        put(previous)
    assert len(one) == 6
    assert one == two


def test_outputs_do_not_depend_on_the_number_of_workers(trained, monkeypatch):
    monkeypatch.setattr(training, "_cores", lambda: 1)
    one = outputs(trained)
    monkeypatch.setattr(training, "_cores", lambda: training.FORWARD_CHUNK)
    assert outputs(trained) == one


def test_train_writes_the_same_bytes_at_any_thread_and_worker_count(tmp_path, monkeypatch):
    """A step of 8 windows runs four chunks of 2, on one worker or two. At 100
    patches a window (50 are too few), OpenBLAS sums a training step's GEMMs in
    another order at 2 threads than at 1."""
    args = [*ARGS, "--set", "patch_size=10"]
    blas = openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread count setter")
    get, put = blas
    for command in ("synth", "preprocess"):
        assert cli.main([command, "--workdir", str(tmp_path), *args]) == 0

    def train(threads, cores):
        monkeypatch.setattr(training, "_cores", lambda: cores)
        put(threads)
        assert cli.main(["train", "--workdir", str(tmp_path), *args]) == 0
        return [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("model.ckpt", "train_report.json")]

    previous = get()
    try:
        runs = {(threads, cores): train(threads, cores) for threads in (1, 2) for cores in (1, 2)}
    finally:
        put(previous)
    assert len(set(map(tuple, runs.values()))) == 1, runs
