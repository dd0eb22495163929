//! Where a kernel runs — the force evaluation's counterpart of
//! `blast_la::SweepLauncher`.
//!
//! A kernel sequence is written once over a [`KernelLauncher`]: each step
//! names what it would bill ([`Launch`], built lazily) and hands over its
//! body. [`Inline`] runs the body and never looks at the bill, so a host
//! evaluation compiles to the direct calls; `&GpuDevice` evaluates the bill
//! and issues one device launch around the same body. The bits a sequence
//! produces therefore cannot depend on where it ran.

use std::convert::Infallible;

use gpu_sim::{GpuDevice, GpuError, LaunchConfig, Traffic};

/// What one kernel launch bills on a device.
#[derive(Clone, Copy, Debug)]
pub struct Launch {
    /// Kernel name on the device timeline (a kernel's `NAME`).
    pub name: &'static str,
    /// Launch configuration.
    pub cfg: LaunchConfig,
    /// Declared traffic.
    pub traffic: Traffic,
}

impl Launch {
    /// A kernel's `NAME`, `config(..)` and `traffic(..)` as one bill.
    pub fn new(name: &'static str, cfg: LaunchConfig, traffic: Traffic) -> Self {
        Self { name, cfg, traffic }
    }
}

/// Where the kernels of a sequence run: `launch` executes `body` exactly
/// once, or returns an error *without* running it (a failed device launch
/// never executed, so its outputs are untouched).
pub trait KernelLauncher {
    /// Why a kernel could not be issued.
    type Error;
    /// Issues one kernel; `what` is evaluated at most once, and only by a
    /// backend that bills.
    fn launch<R>(
        &mut self,
        what: impl FnOnce() -> Launch,
        body: impl FnOnce() -> R,
    ) -> Result<R, Self::Error>;
}

/// The host backend: a kernel is its body.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inline;

impl KernelLauncher for Inline {
    type Error = Infallible;
    #[inline(always)]
    fn launch<R>(
        &mut self,
        _: impl FnOnce() -> Launch,
        body: impl FnOnce() -> R,
    ) -> Result<R, Infallible> {
        Ok(body())
    }
}

/// The device backend: each kernel is one billed launch.
impl KernelLauncher for &GpuDevice {
    type Error = GpuError;
    fn launch<R>(
        &mut self,
        what: impl FnOnce() -> Launch,
        body: impl FnOnce() -> R,
    ) -> Result<R, GpuError> {
        let Launch { name, cfg, traffic } = what();
        GpuDevice::launch(self, name, &cfg, &traffic, body).map(|(out, _)| out)
    }
}

/// Test backends: a recorder that can refuse a launch, and one fault-free
/// device launch.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Logs the name of every kernel it issues (`what` is `FnOnce`: a bill
    /// is built at most once) and refuses the one with ordinal `fail_at`
    /// without running it.
    #[derive(Default)]
    pub(crate) struct Recording {
        pub(crate) log: Vec<&'static str>,
        pub(crate) fail_at: Option<usize>,
    }

    impl KernelLauncher for Recording {
        type Error = usize;
        fn launch<R>(
            &mut self,
            what: impl FnOnce() -> Launch,
            body: impl FnOnce() -> R,
        ) -> Result<R, usize> {
            if self.fail_at == Some(self.log.len()) {
                return Err(self.log.len());
            }
            self.log.push(what().name);
            Ok(body())
        }
    }

    /// `body` inside one launch of `what` on `dev` (no faults planned).
    pub(crate) fn on_device<R>(dev: &GpuDevice, what: Launch, body: impl FnOnce() -> R) -> R {
        let mut on = dev;
        KernelLauncher::launch(&mut on, || what, body).expect("no faults injected")
    }
}
