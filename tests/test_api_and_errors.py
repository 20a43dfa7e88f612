"""Tests for the public API surface and the error hierarchy."""

import pytest

import repro
from repro import errors
from repro.api import ClientSession, Datastore, GetResult, PutResult
from repro.storage import VersionVector


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError), name

    def test_network_errors_grouped(self):
        assert issubclass(errors.RequestTimeout, errors.NetworkError)
        assert issubclass(errors.RemoteError, errors.NetworkError)
        assert issubclass(errors.AddressUnknownError, errors.NetworkError)

    def test_cluster_errors_grouped(self):
        assert issubclass(errors.ChainUnavailableError, errors.ClusterError)
        assert issubclass(errors.NotResponsibleError, errors.ClusterError)

    def test_catching_base_class_works(self):
        with pytest.raises(errors.ReproError):
            raise errors.RequestTimeout("x")

    def test_disposition_split(self):
        assert issubclass(errors.RequestTimeout, errors.TransientError)
        assert issubclass(errors.ReplicaUnavailable, errors.TransientError)
        assert issubclass(errors.ChainUnavailableError, errors.TransientError)
        assert issubclass(errors.SessionClosedError, errors.PermanentError)
        assert issubclass(errors.UnsupportedOperationError, errors.PermanentError)
        assert issubclass(errors.ConfigError, errors.PermanentError)

    def test_retryable_flags(self):
        assert errors.RequestTimeout("x").retryable is True
        assert errors.ReplicaUnavailable("x").retryable is True
        assert errors.SessionClosedError("x").retryable is False
        assert errors.ConfigError("x").retryable is False
        assert errors.RemoteError("x").retryable is True


class TestResultTypes:
    def test_get_result_defaults(self):
        r = GetResult("k", None, VersionVector())
        assert r.stable is True
        assert r.served_by == ""

    def test_put_result_defaults(self):
        r = PutResult("k", VersionVector({"dc0": 1}))
        assert r.stable is False

    def test_results_are_immutable(self):
        r = GetResult("k", "v", VersionVector())
        with pytest.raises(AttributeError):
            r.value = "other"


class TestAbstractSurface:
    def test_client_session_is_abstract(self):
        session = ClientSession()
        with pytest.raises(NotImplementedError):
            session.get("k")
        with pytest.raises(NotImplementedError):
            session.put("k", 1)
        assert session.metadata_bytes() == 0

    def test_datastore_is_abstract(self):
        store = Datastore()
        with pytest.raises(NotImplementedError):
            store.session()
        with pytest.raises(NotImplementedError):
            _ = store.sites


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__

    def test_top_level_exports(self):
        assert repro.ChainReactionStore is not None
        assert repro.ChainReactionConfig is not None

    def test_quickstart_docstring_pattern_works(self):
        store = repro.ChainReactionStore(
            repro.ChainReactionConfig(servers_per_site=3, chain_length=2, ack_k=1, seed=1)
        )
        session = store.session()
        fut = session.put("photo", "beach.jpg")
        store.run(until=1.0)
        assert fut.result().version.total() == 1
