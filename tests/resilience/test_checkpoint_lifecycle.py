"""CheckpointStore lifecycle: delete, and saving again after a delete.

A checkpoint spawns rotation siblings (``.tmp``, ``.prev``, ...); a
delete must retire all of them, and the same path must be usable for a
fresh search afterwards.
"""

from repro.resilience.checkpoint import CheckpointStore


def write_checkpoint(path):
    store = CheckpointStore(path)
    # Mirror ResilienceController.flush_checkpoint: the strategy state
    # rides under the "state" key of the checkpoint document.
    store.save({"state": {"strategy": "dfs", "frontier": {}}})
    return store


class TestDelete:
    def test_delete_removes_checkpoint(self, tmp_path):
        path = tmp_path / "search.ckpt"
        store = write_checkpoint(path)
        assert path.exists()
        assert store.delete() is True
        assert not path.exists()

    def test_delete_missing_returns_false(self, tmp_path):
        assert CheckpointStore(tmp_path / "none.ckpt").delete() is False

    def test_delete_cleans_tmp_sibling(self, tmp_path):
        path = tmp_path / "search.ckpt"
        write_checkpoint(path)
        tmp_sibling = path.with_name(path.name + ".tmp")
        tmp_sibling.write_text("half a checkpoint")
        CheckpointStore(path).delete()
        assert not path.exists()
        assert not tmp_sibling.exists()


class TestRoundTripAfterLifecycle:
    def test_save_load_delete_save_again(self, tmp_path):
        path = tmp_path / "search.ckpt"
        store = CheckpointStore(path)
        store.save({"state": {"strategy": "dfs",
                              "frontier": {"depth": 3}}})
        assert store.load()["state"]["frontier"]["depth"] == 3
        store.delete()
        assert not store.exists()
        store.save({"state": {"strategy": "bfs", "frontier": {}}})
        assert store.load()["state"]["strategy"] == "bfs"
