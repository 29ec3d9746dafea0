//! The reference standard that is timed beside every lap.
//!
//! This benchmark runs on a small guest of a shared host whose speed drifts
//! by up to a factor of 2.5 over minutes — longer than a run, so nothing
//! inside a run can average it away, and wider than any bound worth having.
//! An instrument that drifts is read against a standard: a fixed piece of
//! work, owned by the benchmark and never by the program under test, is timed
//! before the first set-up and after every lap, and every end-to-end time is
//! divided by how much slower (or faster) than [`Yardstick::reference`] the
//! standard ran around the lap the time was measured in (`laps::Host`). A
//! change to the program moves the corrected figures exactly as it moves the
//! raw ones; a change in the host moves them far less.
//!
//! A yardstick must lean on the host the way its workload does, or it
//! corrects for the wrong thing, so there are three:
//!
//! * [`Kind::Cpu`] — one thread of allocation-heavy map and string work, for
//!   the replays and `svc-recover`;
//! * [`Kind::Pipeline`] — a generator keeping a window of messages
//!   outstanding on a channel to a writer thread that does a little work per
//!   message, appends it to a file and syncs once per full batch, for
//!   `svc-burst`;
//! * [`Kind::Requests`] — two clients, each waiting for its reply, over a
//!   socket pair to a connection thread each, which hand to the same writer
//!   thread, syncing once per batch of at most two, for `svc-closed`.
//!
//! None of them calls into the shipped crates.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

use crate::sys::cpu_seconds;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cpu,
    Pipeline,
    Requests,
}

/// How much work one run of each kind is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YardstickSize {
    /// [`Kind::Cpu`]: rounds of [`cpu_work`].
    pub cpu_rounds: usize,
    /// [`Kind::Pipeline`]: messages sent through the writer.
    pub pipeline_messages: usize,
    /// [`Kind::Requests`]: round trips per client.
    pub requests_per_client: usize,
}

pub const FULL: YardstickSize = YardstickSize {
    cpu_rounds: 400_000,
    pipeline_messages: 5_000,
    requests_per_client: 600,
};

#[derive(Debug)]
pub struct Yardstick {
    kind: Kind,
    size: YardstickSize,
    /// The writer thread's file, in the run directory.
    file: PathBuf,
}

/// What one run of the standard took.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub wall_s: f64,
    /// Process CPU seconds, in `USER_HZ` ticks: only sums over a run's
    /// readings are fine enough to use.
    pub cpu_s: f64,
}

/// Map and string work: `rounds` inserts of a formatted string under a
/// pseudo-random key, every third followed by removing the smallest.
fn cpu_work(rounds: usize) -> u64 {
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, format!("job-{x:016x}"));
        if i % 3 == 0 {
            if let Some((key, value)) = map.pop_first() {
                acc = acc.wrapping_add(key + value.len() as u64);
            }
        }
    }
    std::hint::black_box(acc.wrapping_add(map.len() as u64))
}

const FRAME_BYTES: usize = 420;
const REPLY_BYTES: usize = 80;
/// [`cpu_work`] rounds a client or connection thread spends on a request
/// (encode, decode), the pipeline's generator on a message, and the writer on
/// a message (apply, append). They set how much of a reading is the guest's
/// CPU and how much is hand-offs and syncs that go through the host, and are
/// tuned until the workload's raw figures move one for one with the reading
/// when the host drifts (README, "The yardstick").
const CONNECTION_ROUNDS: usize = 50;
const REQUEST_WRITER_ROUNDS: usize = 90;
const GENERATOR_ROUNDS: usize = 30;
const PIPELINE_WRITER_ROUNDS: usize = 200;

const PIPELINE_WINDOW: usize = 128;
const PIPELINE_BATCH: usize = 64;
const REQUEST_BATCH: usize = 2;

type Message = (Vec<u8>, Sender<()>);

/// A yardstick thread's outcome, a panic included.
fn joined(handle: ScopedJoinHandle<'_, std::io::Result<()>>) -> std::io::Result<()> {
    handle
        .join()
        .unwrap_or_else(|_| Err(std::io::Error::other("a yardstick thread panicked")))
}

/// The single writer: takes what is queued up to `max_batch`, works `rounds`
/// on and appends each message, syncs once, then acknowledges each.
fn writer(
    rx: &Receiver<Message>,
    file: &mut File,
    max_batch: usize,
    rounds: usize,
) -> std::io::Result<()> {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(message) => batch.push(message),
                Err(_) => break,
            }
        }
        for (frame, _) in &batch {
            cpu_work(rounds);
            file.write_all(frame)?;
        }
        file.sync_data()?;
        for (_, reply) in batch {
            let _ = reply.send(());
        }
    }
    Ok(())
}

impl Yardstick {
    pub fn new(kind: Kind, size: YardstickSize, file: PathBuf) -> Yardstick {
        Yardstick { kind, size, file }
    }

    /// What one [`FULL`] run took, wall and CPU, on the machine the lap sizes
    /// were tuned on, in the middle of its range: corrected figures read as
    /// that machine's in that state.
    pub fn reference(&self) -> Reading {
        let (wall_s, cpu_s) = match self.kind {
            Kind::Cpu => (0.0600, 0.0600),
            Kind::Pipeline => (0.2300, 0.1900),
            Kind::Requests => (0.2100, 0.0860),
        };
        Reading { wall_s, cpu_s }
    }

    /// Runs the standard once.
    pub fn run(&self) -> Result<Reading, String> {
        let cpu_start = cpu_seconds();
        let start = Instant::now();
        match self.kind {
            Kind::Cpu => {
                cpu_work(self.size.cpu_rounds);
                Ok(())
            }
            Kind::Pipeline => self.pipeline(),
            Kind::Requests => self.requests(),
        }
        .map_err(|e| format!("yardstick: {e}"))?;
        Ok(Reading {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu_start,
        })
    }

    fn pipeline(&self) -> std::io::Result<()> {
        let total = self.size.pipeline_messages;
        let mut file = File::create(&self.file)?;
        let (tx, rx) = mpsc::channel::<Message>();
        let (reply, answers) = mpsc::channel();
        std::thread::scope(|scope| {
            let writing =
                scope.spawn(move || writer(&rx, &mut file, PIPELINE_BATCH, PIPELINE_WRITER_ROUNDS));
            let (mut sent, mut answered) = (0, 0);
            while answered < total {
                while sent < total && sent - answered < PIPELINE_WINDOW {
                    cpu_work(GENERATOR_ROUNDS);
                    if tx.send((vec![0x5a; FRAME_BYTES], reply.clone())).is_err() {
                        break;
                    }
                    sent += 1;
                }
                if answers.recv().is_err() {
                    break;
                }
                answered += 1;
            }
            drop(tx);
            joined(writing)
        })
    }

    fn requests(&self) -> std::io::Result<()> {
        let round_trips = self.size.requests_per_client;
        let mut file = File::create(&self.file)?;
        let (tx, rx) = mpsc::channel::<Message>();
        std::thread::scope(|scope| {
            let writing =
                scope.spawn(move || writer(&rx, &mut file, REQUEST_BATCH, REQUEST_WRITER_ROUNDS));
            let mut clients = Vec::new();
            for _ in 0..2 {
                let (mut near, mut far) = UnixStream::pair()?;
                let tx = tx.clone();
                scope.spawn(move || {
                    let (reply, answer) = mpsc::channel();
                    let mut frame = [0u8; FRAME_BYTES];
                    while far.read_exact(&mut frame).is_ok() {
                        cpu_work(CONNECTION_ROUNDS);
                        if tx.send((frame.to_vec(), reply.clone())).is_err()
                            || answer.recv().is_err()
                            || far.write_all(&frame[..REPLY_BYTES]).is_err()
                        {
                            break;
                        }
                    }
                });
                clients.push(scope.spawn(move || -> std::io::Result<()> {
                    let frame = [0x5a; FRAME_BYTES];
                    let mut answer = [0u8; REPLY_BYTES];
                    for _ in 0..round_trips {
                        cpu_work(CONNECTION_ROUNDS);
                        near.write_all(&frame)?;
                        near.read_exact(&mut answer)?;
                    }
                    Ok(())
                }));
            }
            drop(tx);
            let mut outcome = Ok(());
            for client in clients {
                outcome = outcome.and(joined(client));
            }
            // With the clients gone their sockets close, the connection
            // threads drop their senders, and the writer's channel runs dry.
            outcome.and(joined(writing))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::RunDir;

    const SMALL: YardstickSize = YardstickSize {
        cpu_rounds: 2_000,
        pipeline_messages: 300,
        requests_per_client: 20,
    };

    #[test]
    fn every_kind_runs_to_the_end_and_takes_time() {
        let dir = RunDir::create(false).expect("creates");
        for kind in [Kind::Cpu, Kind::Pipeline, Kind::Requests] {
            let yardstick = Yardstick::new(kind, SMALL, dir.file("yardstick.dat"));
            let reading = yardstick.run().expect("runs");
            assert!(reading.wall_s > 0.0, "{kind:?}");
            assert!(yardstick.reference().wall_s > 0.0);
        }
        // Every message of the last run reached the file.
        let written = std::fs::metadata(dir.file("yardstick.dat")).expect("file");
        assert_eq!(written.len(), (2 * 20 * FRAME_BYTES) as u64);
    }

    #[test]
    fn the_work_is_the_same_every_time() {
        assert_eq!(cpu_work(1_000), cpu_work(1_000));
        assert_ne!(cpu_work(1_000), cpu_work(2_000));
    }
}
