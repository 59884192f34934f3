//! [`crate::fiber`] on a target without the context switch (anything but
//! x86_64 Linux): nothing ever runs as a fiber, so every `Condvar` wait is a
//! thread's, [`yield_now`] is the thread's, and callers choose threads by
//! [`SUPPORTED`].

use std::time::Duration;

/// This target has no context switch; [`run`] must not be called.
pub const SUPPORTED: bool = false;

/// What one [`run`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    pub switches: u64,
    pub expiries: u64,
    pub stalls: u64,
}

pub fn run<T>(
    _n: usize,
    _stack_bytes: usize,
    _body: impl Fn(usize) -> T,
    _on_stall: impl FnMut(),
) -> (Vec<std::thread::Result<T>>, RunStats) {
    unimplemented!("fibers need x86_64 Linux; check fiber::SUPPORTED and use threads")
}

pub fn yield_now() {
    std::thread::yield_now();
}

pub fn is_fiber() -> bool {
    false
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wake {
    Notified,
    Expired,
}

/// Never constructed: there is no fiber to be.
pub(crate) enum Parker<'a> {
    #[allow(dead_code)]
    Never(std::convert::Infallible, std::marker::PhantomData<&'a ()>),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Waiter(std::convert::Infallible);

pub(crate) struct Carrier<'a>(Parker<'a>);

pub(crate) fn current<'a>() -> Option<Parker<'a>> {
    None
}

pub(crate) fn carrier_of<'a>(w: &Waiter) -> Carrier<'a> {
    match w.0 {}
}

impl Waiter {
    pub(crate) fn same_carrier(&self, _: &Waiter) -> bool {
        match self.0 {}
    }
}

impl Parker<'_> {
    pub(crate) fn waiter(&self) -> Waiter {
        match *self {
            Parker::Never(never, _) => match never {},
        }
    }

    pub(crate) fn park(&self, _: Option<Duration>, _: bool) -> Wake {
        match *self {
            Parker::Never(never, _) => match never {},
        }
    }
}

impl Carrier<'_> {
    pub(crate) fn unpark(&self, w: Waiter) {
        match w.0 {}
    }
}
