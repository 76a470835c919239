"""Plain-tree interpreter of the update language: the benchmark's oracle.

A document is a nest of ``[tag, children, size]`` lists, where ``size``
is the element count of the subtree.  Element indices are document-order
(preorder) positions over all elements, the coordinate space of
``CompressedXml.rename``/``insert``/``append_child``/``delete`` and of
``apply_batch``.  Sizes let an index be located in
O(depth · fan-out) without a whole-tree walk, so replaying a few thousand
operations on a 20k-element document takes well under a second.

Nothing here touches the grammar code: the interpreter is the reference
the compressed document must agree with.
"""

from repro.trees.unranked import XmlNode

TAG, KIDS, SIZE = 0, 1, 2


def from_xml(node):
    kids = [from_xml(child) for child in node.children]
    return [node.tag, kids, 1 + sum(kid[SIZE] for kid in kids)]


def to_xml(node):
    return XmlNode(node[TAG], [to_xml(kid) for kid in node[KIDS]])


class PlainDocument:
    """The reference document; every method mirrors one public update."""

    def __init__(self, root):
        self.root = from_xml(root)

    @property
    def element_count(self):
        return self.root[SIZE]

    def locate(self, index):
        """Return ``(node, path)``: ``path`` lists ``(parent, child
        position)`` pairs from the root down to the node."""
        if not 0 <= index < self.root[SIZE]:
            raise IndexError(f"element index {index} out of range")
        node, path = self.root, []
        while index:
            index -= 1
            for position, kid in enumerate(node[KIDS]):
                if index < kid[SIZE]:
                    path.append((node, position))
                    node = kid
                    break
                index -= kid[SIZE]
        return node, path

    @staticmethod
    def _grow(path, delta):
        for parent, _ in path:
            parent[SIZE] += delta

    def tag_of(self, index):
        return self.locate(index)[0][TAG]

    def subtree_size(self, index):
        return self.locate(index)[0][SIZE]

    def rename(self, index, tag):
        self.locate(index)[0][TAG] = tag

    def insert(self, index, content):
        if index == 0:
            raise ValueError("cannot insert before the document root")
        _, path = self.locate(index)
        parent, position = path[-1]
        added = [from_xml(node) for node in content]
        parent[KIDS][position:position] = added
        self._grow(path, sum(node[SIZE] for node in added))

    def append_child(self, index, content):
        node, path = self.locate(index)
        added = [from_xml(item) for item in content]
        node[KIDS].extend(added)
        delta = sum(item[SIZE] for item in added)
        node[SIZE] += delta
        self._grow(path, delta)

    def delete(self, index):
        if index == 0:
            raise ValueError("cannot delete the document root")
        node, path = self.locate(index)
        parent, position = path[-1]
        del parent[KIDS][position]
        self._grow(path, -node[SIZE])

    def snapshot_xml(self):
        """The current document as an ``XmlNode`` (for naive queries)."""
        return to_xml(self.root)
