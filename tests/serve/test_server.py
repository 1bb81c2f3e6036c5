"""HTTP front end: every route end-to-end over a loopback ephemeral port."""

import io
import json
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, ModelRegistry, PredictServer, ServeConfig, ServedModel,
)
from repro.tensor import Tensor, no_grad

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def make_served(seed: int, name: str = "peb", registry=None):
    nn.init.seed(seed)
    model, _ = build_method("DeepCNN", GRID)
    model.set_output_stats(0.5, 1.0)
    manifest = registry.publish(model, "DeepCNN", GRID, name)
    loaded, manifest = registry.load(name)
    return ServedModel(loaded, manifest, BatchPolicy(max_wait_ms=2.0))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    served = make_served(0, registry=registry)
    instance = PredictServer(served, ServeConfig(port=0)).start()
    yield instance, served
    instance.shutdown()


@pytest.fixture
def conn(server):
    instance, _ = server
    host, port = instance.address
    connection = HTTPConnection(host, port, timeout=30)
    yield connection
    connection.close()


def post_npz(connection, acid, query=""):
    buffer = io.BytesIO()
    np.savez(buffer, acid=acid)
    connection.request("POST", "/v1/predict" + query, body=buffer.getvalue(),
                       headers={"Content-Type": "application/octet-stream"})
    return connection.getresponse()


class TestPredict:
    def test_npz_round_trip_matches_direct_forward(self, server, conn):
        _, served = server
        acid = np.random.default_rng(0).random(GRID.shape)
        response = post_npz(conn, acid)
        assert response.status == 200
        assert response.getheader("X-Repro-Model") == "peb"
        with np.load(io.BytesIO(response.read())) as archive:
            prediction = archive["prediction"]
        with no_grad():
            direct = served.model(Tensor(acid[None])).numpy()[0]
        assert np.array_equal(prediction, direct)

    def test_json_round_trip(self, conn):
        acid = np.random.default_rng(1).random(GRID.shape)
        conn.request("POST", "/v1/predict", body=json.dumps({"acid": acid.tolist()}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["model"] == "peb" and payload["version"] == 1
        assert tuple(payload["shape"]) == GRID.shape
        assert np.isfinite(np.asarray(payload["prediction"])).all()

    def test_batched_leading_one_accepted(self, conn):
        acid = np.random.default_rng(2).random((1,) + GRID.shape)
        assert post_npz(conn, acid).status == 200

    def test_wrong_shape_400(self, conn):
        response = post_npz(conn, np.ones((3, 3)))
        assert response.status == 400
        assert "expected one clip" in json.loads(response.read())["error"]

    def test_nonfinite_input_400(self, conn):
        acid = np.full(GRID.shape, np.nan)
        response = post_npz(conn, acid)
        assert response.status == 400
        assert "NaN" in json.loads(response.read())["error"]

    def test_garbage_body_400(self, conn):
        conn.request("POST", "/v1/predict", body=b"not an npz",
                     headers={"Content-Type": "application/octet-stream"})
        assert conn.getresponse().status == 400

    def test_json_without_acid_400(self, conn):
        conn.request("POST", "/v1/predict", body=json.dumps({"x": 1}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "acid" in json.loads(response.read())["error"]

    def test_empty_body_400(self, conn):
        conn.request("POST", "/v1/predict", body=b"",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400

    @pytest.mark.parametrize("value", ["abc", None, [1], {"ms": 5}, True, float("nan"),
                                       float("inf"), -1, -0.5, 10 ** 400],
                             ids=["text", "null", "list", "object", "bool", "nan", "inf",
                                  "negative", "negative_fraction", "overflow"])
    def test_bad_json_deadline_400(self, conn, value):
        acid = np.random.default_rng(3).random(GRID.shape)
        conn.request("POST", "/v1/predict",
                     body=json.dumps({"acid": acid.tolist(), "deadline_ms": value}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "deadline_ms" in json.loads(response.read())["error"]
        assert post_npz(conn, acid).status == 200

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", "-inf", "1e999"])
    def test_bad_query_deadline_400(self, conn, value):
        acid = np.random.default_rng(4).random(GRID.shape)
        response = post_npz(conn, acid, query=f"?deadline_ms={value}")
        assert response.status == 400
        assert "deadline_ms" in json.loads(response.read())["error"]
        assert post_npz(conn, acid).status == 200

    def test_valid_deadline_200(self, conn):
        acid = np.random.default_rng(5).random(GRID.shape)
        conn.request("POST", "/v1/predict",
                     body=json.dumps({"acid": acid.tolist(), "deadline_ms": 30000}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        response.read()
        response = post_npz(conn, acid, query="?deadline_ms=30000.5")
        assert response.status == 200
        response.read()

    def test_unknown_model_404(self, conn):
        response = post_npz(conn, np.ones(GRID.shape), query="?model=nope")
        assert response.status == 404

    def test_unknown_version_404(self, conn):
        response = post_npz(conn, np.ones(GRID.shape), query="?model=peb&version=9")
        assert response.status == 404

    def test_unknown_route_404(self, conn):
        conn.request("POST", "/v2/predict", body=b"{}",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 404


def post_body(connection, body):
    connection.request("POST", "/v1/predict", body=body,
                       headers={"Content-Type": "application/octet-stream"})
    return connection.getresponse()


class TestNpzPayloadVetting:
    """The npz member header is checked before any array data inflates."""

    def test_decompression_bomb_rejected_from_header(self, conn):
        import tracemalloc

        buffer = io.BytesIO()
        np.savez_compressed(buffer, acid=np.zeros((256, 128, 64)))
        body = buffer.getvalue()
        assert len(body) < 32 * 1024  # 16 MiB of float64 zeros, deflated
        tracemalloc.start()
        try:
            response = post_body(conn, body)
            payload = json.loads(response.read())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert response.status == 400
        assert "expected one clip" in payload["error"]
        assert peak < 2 * 1024 * 1024
        # the server is unharmed and answers the next request
        assert post_npz(conn, np.random.default_rng(6).random(GRID.shape)).status == 200

    def test_object_dtype_member_400(self, conn):
        acid = np.empty(GRID.shape, dtype=object)
        acid[...] = 1.0
        buffer = io.BytesIO()
        np.savez(buffer, acid=acid)
        response = post_body(conn, buffer.getvalue())
        assert response.status == 400
        assert "dtype" in json.loads(response.read())["error"]

    def test_unreadable_member_400(self, conn):
        import zipfile

        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("acid.npy", b"\x93NUMPY garbage")
        # and a corrupted deflate stream inside a well-formed archive
        corrupt = io.BytesIO()
        np.savez_compressed(corrupt, acid=np.random.default_rng(8).random(GRID.shape))
        corrupt = bytearray(corrupt.getvalue())
        corrupt[80:90] = bytes(10)
        for body in (buffer.getvalue(), bytes(corrupt)):
            response = post_body(conn, body)
            assert "npz" in json.loads(response.read())["error"]
            assert response.status == 400
        assert post_npz(conn, np.random.default_rng(9).random(GRID.shape)).status == 200

    def test_missing_member_400(self, conn):
        buffer = io.BytesIO()
        np.savez(buffer, other=np.ones(GRID.shape))
        response = post_body(conn, buffer.getvalue())
        assert response.status == 400
        assert "acid" in json.loads(response.read())["error"]

    def test_valid_compressed_npz_decodes_exactly(self, server, conn):
        _, served = server
        acid = np.random.default_rng(7).random((1,) + GRID.shape)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, acid=acid)
        response = post_body(conn, buffer.getvalue())
        assert response.status == 200
        with np.load(io.BytesIO(response.read())) as archive:
            prediction = archive["prediction"]
        with no_grad():
            direct = served.model(Tensor(acid)).numpy()[0]
        assert prediction.tobytes() == direct.tobytes()


class TestIntrospection:
    def test_healthz(self, conn):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["models"] == ["peb"]
        assert "peb:v1" in payload["queues"]
        assert payload["queues"]["peb:v1"]["queue_depth"] == 0

    def test_models_listing(self, conn):
        conn.request("GET", "/v1/models")
        payload = json.loads(conn.getresponse().read())
        assert len(payload["models"]) == 1
        entry = payload["models"][0]
        assert entry["name"] == "peb" and entry["latest"] and entry["default"]
        assert entry["content_hash"].startswith("sha256:")

    def test_metrics_prometheus_text(self, conn):
        post_npz(conn, np.random.default_rng(3).random(GRID.shape)).read()
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        body = response.read().decode()
        assert "repro_serve_requests_total" in body
        assert "repro_serve_batch_size_bucket" in body
        assert "repro_serve_request_seconds_count" in body

    def test_get_unknown_route_404(self, conn):
        conn.request("GET", "/v1/predict")
        assert conn.getresponse().status == 404


class TestShutdown:
    def test_graceful_shutdown_is_clean_and_idempotent(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        served = make_served(1, name="solo", registry=registry)
        instance = PredictServer(served, ServeConfig(port=0)).start()
        host, port = instance.address
        connection = HTTPConnection(host, port, timeout=10)
        acid = np.random.default_rng(4).random(GRID.shape)
        assert post_npz(connection, acid).status == 200
        connection.close()
        instance.shutdown()
        assert served.batcher.closed
        # idempotent: a second shutdown must not hang or raise
        instance.shutdown()
        with pytest.raises(OSError):
            fresh = HTTPConnection(host, port, timeout=2)
            fresh.request("GET", "/healthz")
            fresh.getresponse()
