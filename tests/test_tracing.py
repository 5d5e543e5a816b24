"""perfbench/tracing.py wraps rankqp functions by module attribute name, so
each of those names must stay where the tracer looks for it."""
import importlib.util
import pathlib
import sys

import numpy as np

from rankqp import ipm
from rankqp.cli import cli_run
from rankqp.libsvm_io import Dataset, emit_libsvm

from conftest import random_lowrank_instance

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores(tmp_path):
    tracing = _load_tracing()
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing._targets()]
    data, model = tmp_path / "two.svm", tmp_path / "model.txt"
    emit_libsvm(Dataset.from_dense(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                   np.array([1.0, -1.0])), data)
    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.run = 0
        assert cli_run(["train-svm", str(data), "--model-out", str(model),
                        "--report", str(tmp_path / "train.json")]) == 0
        assert cli_run(["predict", str(data), "--model", str(model),
                        "--report", str(tmp_path / "predict.json")]) == 0
    names = {span.name for span in tracer.spans}
    # The commands call the model file functions through the names in cli.
    assert {"cli.dump_model", "cli.load_model", "svm.train"} <= names
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing._targets()] == originals


def test_tracer_sees_every_layer_of_the_maintained_solve(rng):
    # solve(backend="lowrank") reaches ExactDS, the sketches, the maintained
    # centering loop and the augmentation through the names the tracer wraps.
    tracing = _load_tracing()
    inst = random_lowrank_instance(rng, n=12, k=2, m=1)
    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.run = 0
        ipm.solve(inst, 1e-2, backend="lowrank")
    names = {span.name for span in tracer.spans}
    assert {"exactds.ExactDS.init", "exactds.ExactDS.move", "exactds.ExactDS.update",
            "sketch.ApproxDS.init", "sketch.ApproxDS.move_and_query",
            "sketch.ApproxDS.update", "cpm.centering_lowrank",
            "model.augment_for_initial_point"} <= names
