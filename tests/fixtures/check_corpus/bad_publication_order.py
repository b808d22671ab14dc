"""Corpus: the generation stamp published before the data it covers."""


class Service:
    def __init__(self):
        self._shards = {}
        self._class_to_sid = {}
        self._generation = 0

    def commit(self, staged, generation):  # publishes: _shards, _class_to_sid, _generation
        for sid, shard in staged:
            self._shards[sid] = shard
        self._generation = generation
        for sid, shard in staged:
            for cls in shard:
                self._class_to_sid[cls] = sid  # BAD[publication-order]
        self._shards.pop(None, None)  # BAD[publication-order]

    def commit_missing_stamp(self, staged):  # BAD[publication-order] publishes: _shards, _generation
        for sid, shard in staged:
            self._shards[sid] = shard

    def publish_missing_value(self, staged):  # BAD[publication-order] publishes: _registry
        self._staged = staged
