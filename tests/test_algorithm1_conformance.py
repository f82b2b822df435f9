"""Algorithm 1 conformance: an independent re-implementation of a FedTrip
round must reproduce the framework's weights exactly.

This is the strongest correctness test in the suite: it re-implements the
paper's Algorithm 1 with nothing but the nn substrate (no Strategy, no
Client/Server machinery) and checks bit-level agreement with the
engine over two rounds — covering line 4 (init from the global model +
historical load), lines 5-8 (per-batch loss, triplet gradient, SGDm
update), line 11 (upload) and line 12 (weighted aggregation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine
from repro.algorithms import FedTrip
from repro.data import build_federated_data
from repro.fl.sampling import FixedSampler
from repro.models import build_mlp
from repro.nn.losses import CrossEntropyLoss
from repro.utils.rng import RngStream

MU = 0.3
LR = 0.05
MOMENTUM = 0.9
BATCH = 20
ROUNDS = 2
SCHEDULE = [[0, 2], [0, 3]]  # client 0 participates twice: xi=1 in round 1


def _manual_fedtrip(data, config):
    """Reference implementation of Algorithm 1 with SGDm as U."""
    root = RngStream(config.seed)
    model = build_mlp(data.spec.input_shape, data.spec.num_classes,
                      rng=root.child("model-init").generator)
    criterion = CrossEntropyLoss()
    w_glob = model.get_weights()
    historical = {}
    last_round = {}

    for t in range(ROUNDS):
        selected = SCHEDULE[t]
        uploads = {}
        for cid in selected:
            shard = data.client_dataset(cid)
            model.set_weights(w_glob)
            model.train()
            velocity = [np.zeros_like(p.data) for p in model.parameters()]
            # xi per the paper: gap since last participation, 0 if fresh.
            if cid in historical:
                xi = max(t - last_round[cid], 1)
                w_hist = historical[cid]
            else:
                xi, w_hist = 0, None
            # Batch order must match the framework's client rng stream.
            batch_rng = RngStream(config.seed).child("client", cid).child(
                "batches", t).generator
            order = batch_rng.permutation(len(shard))
            for start in range(0, len(shard), BATCH):
                idx = order[start:start + BATCH]
                xb, yb = shard.x[idx], shard.y[idx]
                logits = model(xb)
                _, dlogits = criterion(logits, yb)
                model.zero_grad()
                model.backward(dlogits)
                params = model.parameters()
                for i, p in enumerate(params):
                    h = p.grad + MU * (p.data - w_glob[i])
                    if xi > 0:
                        h = h + MU * xi * (w_hist[i] - p.data)
                    velocity[i] = MOMENTUM * velocity[i] + h
                    p.data -= LR * velocity[i]
            uploads[cid] = (model.get_weights(), len(shard))
            historical[cid] = model.get_weights()
            last_round[cid] = t
        total = sum(n for _, n in uploads.values())
        w_glob = [
            sum(w[i] * (n / total) for w, n in uploads.values())
            for i in range(len(w_glob))
        ]
        w_glob = [np.asarray(w, dtype=np.float32) for w in w_glob]
    return w_glob


@pytest.fixture(scope="module")
def conformance_data():
    return build_federated_data("tiny", n_clients=4, partition="dirichlet",
                                alpha=0.5, seed=0)


class TestAlgorithm1Conformance:
    def test_two_rounds_bitwise(self, conformance_data):
        config = FLConfig(rounds=ROUNDS, n_clients=4, clients_per_round=2,
                          batch_size=BATCH, lr=LR, momentum=MOMENTUM, seed=0)
        sim = Engine(conformance_data, FedTrip(mu=MU), config,
                         model_name="mlp",
                         sampler=FixedSampler(SCHEDULE, n_clients=4))
        sim.run()
        framework = sim.server.weights
        sim.close()

        manual = _manual_fedtrip(conformance_data, config)
        for i, (a, b) in enumerate(zip(framework, manual)):
            np.testing.assert_allclose(
                a, b, atol=1e-6,
                err_msg=f"layer {i} diverges from the Algorithm 1 reference",
            )

    def test_divergence_detector_detects_changes(self, conformance_data):
        """Sanity: the reference is actually sensitive — a different mu
        must NOT match."""
        config = FLConfig(rounds=ROUNDS, n_clients=4, clients_per_round=2,
                          batch_size=BATCH, lr=LR, momentum=MOMENTUM, seed=0)
        sim = Engine(conformance_data, FedTrip(mu=MU * 2), config,
                         model_name="mlp",
                         sampler=FixedSampler(SCHEDULE, n_clients=4))
        sim.run()
        framework = sim.server.weights
        sim.close()
        manual = _manual_fedtrip(conformance_data, config)
        assert any(
            not np.allclose(a, b, atol=1e-6) for a, b in zip(framework, manual)
        )
