"""A from-scratch red-black tree map, equivalent to Java's ``TreeMap``.

The paper stores partial results in a Java ``TreeMap`` ("a Red-Black tree
implementation in Java", §3.2): fast point access plus in-order key
iteration for sorted final output.  This is that structure, kept as the
measured reference for the cost it models — stagebench replays its
inserts and updates (``treemap.insert_us`` / ``treemap.update_us``) and
the substrate micro-benchmarks race it against the builtin sort, the
competition §6.1.1 describes.  No store keeps one any more: each holds
its partials in a hash table and sorts once where order is consumed,
which yields the same key order.  Its balance invariants are
property-tested in the suite.

The implementation follows the classic CLRS formulation with a shared
sentinel NIL node; deletion implements the full fix-up procedure.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

RED = 0
BLACK = 1


class _Node:
    """Internal tree node.  Users never see these."""

    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any, color: int, nil: "_Node | None" = None):
        self.key = key
        self.value = value
        self.color = color
        self.left: "_Node" = nil if nil is not None else self
        self.right: "_Node" = nil if nil is not None else self
        self.parent: "_Node" = nil if nil is not None else self


class TreeMap:
    """Sorted mutable mapping backed by a red-black tree.

    Supports ``get``/``put``/``remove``/``__contains__`` in O(log n),
    in-order iteration, ``first_key``/``last_key``,
    ``floor_key``/``ceiling_key`` and ``pop_first``.
    """

    def __init__(self) -> None:
        self._nil = _Node(None, None, BLACK)
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root: _Node = self._nil
        self._size = 0

    # -- basic mapping protocol --------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not None

    def __getitem__(self, key: Any) -> Any:
        node = self._find(key)
        if node is None:
            raise KeyError(key)
        return node.value

    def __setitem__(self, key: Any, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: Any) -> None:
        if not self.remove(key):
            raise KeyError(key)

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def get(self, key: Any, default: Any = None) -> Any:
        """Value for ``key``, or ``default`` when absent."""
        node = self._find(key)
        return default if node is None else node.value

    def put(self, key: Any, value: Any) -> None:
        """Insert or replace the value for ``key``."""
        parent = self._nil
        current = self._root
        while current is not self._nil:
            parent = current
            if key == current.key:
                current.value = value
                return
            if key < current.key:
                current = current.left
            else:
                current = current.right
        node = _Node(key, value, RED, self._nil)
        node.parent = parent
        if parent is self._nil:
            self._root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node
        self._size += 1
        self._insert_fixup(node)

    def setdefault(self, key: Any, default: Any) -> Any:
        """Insert ``default`` if ``key`` is absent; return the stored value."""
        node = self._find(key)
        if node is not None:
            return node.value
        self.put(key, default)
        return default

    def remove(self, key: Any) -> bool:
        """Delete ``key``.  Returns True iff the key was present."""
        node = self._find(key)
        if node is None:
            return False
        self._delete(node)
        self._size -= 1
        return True

    def clear(self) -> None:
        """Remove all entries."""
        self._root = self._nil
        self._size = 0

    # -- ordered access ------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        """Keys in ascending order."""
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        """Values in ascending key order."""
        for _, value in self.items():
            yield value

    def items(self) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs in ascending key order (iterative walk)."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def first_key(self) -> Any:
        """Smallest key.  Raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("first_key() on empty TreeMap")
        return self._minimum(self._root).key

    def last_key(self) -> Any:
        """Largest key.  Raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("last_key() on empty TreeMap")
        node = self._root
        while node.right is not self._nil:
            node = node.right
        return node.key

    def pop_first(self) -> tuple[Any, Any]:
        """Remove and return the entry with the smallest key."""
        if self._root is self._nil:
            raise KeyError("pop_first() on empty TreeMap")
        node = self._minimum(self._root)
        entry = (node.key, node.value)
        self._delete(node)
        self._size -= 1
        return entry

    def floor_key(self, key: Any) -> Any | None:
        """Largest key ``<= key``, or None."""
        best = None
        node = self._root
        while node is not self._nil:
            if node.key == key:
                return node.key
            if node.key < key:
                best = node.key
                node = node.right
            else:
                node = node.left
        return best

    def ceiling_key(self, key: Any) -> Any | None:
        """Smallest key ``>= key``, or None."""
        best = None
        node = self._root
        while node is not self._nil:
            if node.key == key:
                return node.key
            if node.key > key:
                best = node.key
                node = node.left
            else:
                node = node.right
        return best

    # -- invariant checking (used by property tests) -------------------------

    def check_invariants(self) -> None:
        """Assert the red-black invariants; raises AssertionError on breach.

        1. The root is black.
        2. No red node has a red child.
        3. Every root-to-leaf path has the same number of black nodes.
        4. In-order traversal yields strictly increasing keys.
        """
        if self._root is not self._nil:
            assert self._root.color == BLACK, "root must be black"
        self._check_node(self._root)
        previous = None
        count = 0
        for key, _ in self.items():
            if previous is not None:
                assert previous < key, "in-order keys must strictly increase"
            previous = key
            count += 1
        assert count == self._size, "size counter out of sync"

    def _check_node(self, node: _Node) -> int:
        if node is self._nil:
            return 1
        if node.color == RED:
            assert node.left.color == BLACK and node.right.color == BLACK, (
                "red node has red child"
            )
        left_height = self._check_node(node.left)
        right_height = self._check_node(node.right)
        assert left_height == right_height, "black-height mismatch"
        return left_height + (1 if node.color == BLACK else 0)

    # -- internals ------------------------------------------------------------

    def _find(self, key: Any) -> Optional[_Node]:
        node = self._root
        while node is not self._nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color == RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete(self, z: _Node) -> None:
        y = z
        y_original_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_original_color == BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK
