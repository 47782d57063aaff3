//! Output-file checks shared by the sorters: the output name must be free
//! before a sort starts, and a finished tape is published under it.

use pdm::{Disk, PdmError, PdmResult};

/// Fails with [`PdmError::AlreadyExists`] when `output` is taken. The
/// sorters check before they form runs, so a sort onto an existing file
/// fails at once instead of after all its work.
pub(crate) fn check_free(disk: &Disk, output: &str) -> PdmResult<()> {
    if disk.exists(output) {
        return Err(PdmError::AlreadyExists(output.to_string()));
    }
    Ok(())
}

/// Renames a sort's finished tape to `output`. If that fails (the name was
/// taken meanwhile), the tape is removed, so the failed sort leaves no file
/// behind.
pub(crate) fn publish(disk: &Disk, tape: &str, output: &str) -> PdmResult<()> {
    disk.rename(tape, output).or_else(|e| {
        disk.remove(tape)?;
        Err(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_publish_removes_the_tape() {
        let disk = Disk::in_memory(64);
        disk.write_file::<u32>("tape", &[1, 2]).unwrap();
        disk.write_file::<u32>("out", &[7]).unwrap();
        let err = publish(&disk, "tape", "out").unwrap_err();
        assert!(matches!(err, PdmError::AlreadyExists(_)), "{err}");
        assert!(!disk.exists("tape"));
        assert_eq!(disk.read_file::<u32>("out").unwrap(), vec![7]);
        publish(&disk, "out", "done").unwrap();
        assert_eq!(disk.read_file::<u32>("done").unwrap(), vec![7]);
    }
}
