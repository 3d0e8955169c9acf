//! The list a request's probes become on their way through the router:
//! usually one item.

/// A growable list whose first item sits inline, so a list of one — one
/// probe's reach, one pick of probes for a shard — never touches the
/// heap, through the same code a list of many runs.
pub(crate) enum Few<T> {
    Inline(Option<T>),
    Heap(Vec<T>),
}

impl<T> Few<T> {
    pub(crate) fn new() -> Self {
        Few::Inline(None)
    }

    pub(crate) fn push(&mut self, item: T) {
        match self {
            Few::Inline(slot @ None) => *slot = Some(item),
            Few::Inline(first) => {
                *self = Few::Heap(first.take().into_iter().chain([item]).collect())
            }
            Few::Heap(items) => items.push(item),
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Few::Inline(slot) => slot.as_slice(),
            Few::Heap(items) => items,
        }
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > 1 {
            return Few::Heap(iter.collect());
        }
        let mut few = Few::new();
        iter.for_each(|item| few.push(item));
        few
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_from_inline_to_heap_keeping_order() {
        let mut few = Few::new();
        assert!(few.as_slice().is_empty());
        few.push(1);
        assert!(matches!(few, Few::Inline(Some(1))));
        few.push(2);
        few.push(3);
        assert_eq!(few.as_slice(), [1, 2, 3]);
        let one: Few<u8> = std::iter::once(9).collect();
        assert_eq!(one.as_slice(), [9]);
    }
}
